"""Replay-free continual-learning task router.

Natural-language instructions are hashed and expanded into a fixed random
feature space, a closed-form ridge classifier maps them to task ids, and new
tasks are absorbed through exact recursive updates of two sufficient
statistics, so earlier tasks are never revisited and never forgotten. A
registry of per-task executors turns the chosen id into an action chunk.

Each name lives in its own module and is imported from there, for example
``from taskrouter.scheduler import fit_base``; this file re-exports nothing,
so importing one module loads only what that module needs.
"""
