"""Host-time benchmark of the convwatt CLI; entry point is ``bench/run.py``."""
