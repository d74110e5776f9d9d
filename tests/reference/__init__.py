"""Reference code of the tests: closed-form scenarios and brute-force
oracles that check the engine without sharing code with it.

``tests/`` is on ``sys.path`` under pytest, so tests import this package as
``reference``; ``scripts/make_scenarios.py`` puts ``tests/`` on the path
itself.
"""
