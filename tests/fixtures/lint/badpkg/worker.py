"""Worker-shipping fixture: dispatched callables touch shared state."""

from repro.api.pool import iter_grid

_RESULTS = []
_SEEN = {}


def _accumulate(task):
    """Mutates module-level state -- a race once shipped to workers."""
    _RESULTS.append(task)
    return task


def run(pool, tasks):
    """Ships the mutating function through a pool."""
    return list(pool.imap(_accumulate, tasks))


def run_lambda(pool, tasks):
    """Ships a lambda, which cannot pickle and hides its closure."""
    return list(pool.imap(lambda task: task + 1, tasks))


def _tally(state, task):
    """Mutates module-level state -- shipped through the grid runner."""
    _SEEN[task] = state
    return task


def run_grid(tasks):
    """Ships the mutating function through the grid runner."""
    return list(iter_grid(_tally, None, tasks, 2))
