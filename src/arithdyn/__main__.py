"""`python -m arithdyn` and the `arithdyn` script: run `arithdyn.cli` as the
main module, where each subcommand imports only the layers it runs (a
library import of `arithdyn.cli` loads every layer)."""

import runpy


def main():
    runpy.run_module("arithdyn.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
