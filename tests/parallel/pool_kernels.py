"""Pool kernels used by the ProcessPool tests.

Workers import this module by path (``kernel_modules``), so the kernels
resolve identically under fork and spawn start methods.
"""

import os
import time

from repro.parallel.procpool import pool_kernel


@pool_kernel("t_echo")
def t_echo(ctx, *, lo, hi):
    """Return a scalar derived from the payload and the worker id."""
    return (lo, hi, ctx.worker_id)


@pool_kernel("t_fill")
def t_fill(ctx, *, lo, hi, value):
    """Write ``value`` into the bound output chunk (zero-copy check)."""
    ctx["out"][lo:hi] = value
    return hi - lo


@pool_kernel("t_sleep")
def t_sleep(ctx, *, seconds):
    time.sleep(seconds)
    return ctx.worker_id


@pool_kernel("t_raise")
def t_raise(ctx, *, message):
    raise ValueError(message)


@pool_kernel("t_interrupt")
def t_interrupt(ctx):
    raise KeyboardInterrupt


@pool_kernel("t_crash")
def t_crash(ctx):
    os._exit(3)
