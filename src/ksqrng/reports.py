"""Structured-text reports: one ``key = value`` line per entry, stable key
names and insertion order, shortest round-trip float formatting. These files
are the golden-testable output of every pipeline stage."""

from __future__ import annotations

from .formats import atomic_write


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_report(entries) -> str:
    return "".join(f"{key} = {format_value(value)}\n" for key, value in entries)


def emit_report(entries, path=None) -> str:
    """Render a report; write it atomically when a path is given, otherwise
    print it to stdout. Returns the rendered text."""
    text = render_report(entries)
    if path is None:
        print(text, end="")
        return text
    atomic_write(path, text.encode("utf-8"))
    return text
