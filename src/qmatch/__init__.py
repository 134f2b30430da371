"""Queue-based student-teacher distribution matching for tabular data."""
