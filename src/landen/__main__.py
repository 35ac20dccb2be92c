import sys

from .commands import main

if __name__ == "__main__":
    sys.exit(main())
