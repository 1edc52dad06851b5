"""Block-granular multi-task sparsity and task-switch latency simulator."""

__version__ = "0.1.0"
