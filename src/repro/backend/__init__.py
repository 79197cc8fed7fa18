"""ANSI C emission."""
