"""The eight reference figures, each what `koalition plot` writes for its argv.

Run directly to (re)generate the golden SVGs:

    python tests/golden_figures.py

Every figure comes from one `koalition plot` argv on the committed
fixture dataset, run through `koalition.cli.main`, so the goldens are the
bytes a user gets. The golden test compares those bytes with the files
under `tests/golden/`, so any intentional rendering change must
regenerate them in the same commit.
"""

import tempfile
from pathlib import Path

import koalition.cli as cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

ARGV = (
    "plot",
    "--polls", str(FIXTURES / "polls.csv"),
    "--config", str(FIXTURES / "config.ini"),
    "--as-of", "2018-03-05",
    "--election-date", "2018-05-20",
    "--draws", "20000",
    "--seed", "42",
    "--coalition", "grand",
    "--k", "6",
)


def build_figures() -> dict[str, str]:
    figures = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in cli.FIGURES:
            out = Path(tmp) / f"{name}.svg"
            code = cli.main([*ARGV, "--figure", name, "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"koalition plot --figure {name} exited {code}")
            figures[name] = out.read_text(encoding="utf-8")
    return figures


def main():
    GOLDEN.mkdir(exist_ok=True)
    for name, svg in build_figures().items():
        path = GOLDEN / f"{name}.svg"
        path.write_text(svg, encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
