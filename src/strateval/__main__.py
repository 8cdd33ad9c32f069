from strateval.cli import run

run()
