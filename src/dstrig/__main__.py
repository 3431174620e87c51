"""Run the dstrig command line as `python -m dstrig`."""

from .cli import entry

if __name__ == "__main__":
    entry()
