"""Probes for work run on `moco4d.pool`: the tasks submitted to it, and what
the pool threads call."""

import functools
import inspect
import sys
import threading

import moco4d
from moco4d import autodiff as ad
from moco4d import pool


def on_pool_thread():
    return threading.current_thread().name.startswith("moco4d-pool")


class Submissions:
    """Counts the tasks submitted to the pool: in all, and from pool threads."""

    def __init__(self, monkeypatch):
        self.total = self.from_workers = 0
        lock = threading.Lock()
        submit = pool._POOL.submit

        def counting(*args, **kwargs):
            with lock:
                self.total += 1
                self.from_workers += on_pool_thread()
            return submit(*args, **kwargs)

        monkeypatch.setattr(pool._POOL, "submit", counting)


def record_pool_thread_calls(monkeypatch):
    """Wrap `Tensor` construction and every public function of the `moco4d`
    modules, in every module that binds it; returns the list that gets the
    name of each one called on a pool thread."""
    calls = []

    def wrap(name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if on_pool_thread():
                calls.append(name)
            return fn(*args, **kwargs)
        return recorded

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "moco4d" or n.startswith("moco4d."))]
    public = {id(fn): wrap(f"{m.__name__}.{name}", fn)
              for m in modules for name, fn in vars(m).items()
              if inspect.isfunction(fn) and not name.startswith("_")
              and fn.__module__.startswith(moco4d.__name__)}
    for m in modules:
        for name, value in list(vars(m).items()):
            if id(value) in public and inspect.isfunction(value):
                monkeypatch.setattr(m, name, public[id(value)])
    monkeypatch.setattr(ad.Tensor, "__init__", wrap("Tensor", ad.Tensor.__init__))
    return calls
