"""Wall-clock serving benchmark for the numeric backend (see README.md)."""
