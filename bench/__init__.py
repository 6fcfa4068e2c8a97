"""The repo's pinned, closed-loop benchmark (see ``bench/README.md``).

Everything here measures ``repro`` **from outside**, through public
calls only; nothing under ``src/`` knows this package exists.
"""
