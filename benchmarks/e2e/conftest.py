"""Self-test set-up: import ``repro`` from this checkout's ``src``, as
``run.py`` does."""

import run

run.import_checkout_source()
