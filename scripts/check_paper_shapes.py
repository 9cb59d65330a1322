#!/usr/bin/env python3
"""Paper-shape gate: assert the result shapes EXPERIMENTS.md claims.

The paper_* tests hold bench/golden/*.txt byte-equal to the
reproduction binaries' output, which proves nothing moved. This check
reads the Average rows of Tables 1-3 and the Figure 7 headline from
those goldens and asserts the shapes themselves, so that an intended
code-quality change that breaks one of the paper's claims fails by
name. Wired into ctest as paper_shapes (label "paper").

Usage: scripts/check_paper_shapes.py GOLDEN_DIR
"""

import os
import re
import sys


def average_row(path):
    """Map each percent column of a golden table to its Average value.

    Table 1 puts a bare "%" column after each "ORDERING m/t/u/p" column;
    Tables 2 and 3 name their columns "NAME %".
    """
    header = average = None
    with open(path) as f:
        for line in f:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if header is None and cells and cells[0] == "benchmark":
                header = cells
            elif cells and cells[0] == "Average":
                average = cells
    if header is None or average is None:
        raise ValueError(f"{path}: no header or Average row")
    values = {}
    for i, name in enumerate(header):
        if name == "%":
            key = header[i - 1].split()[0]
        elif name.endswith(" %"):
            key = name[:-2].strip()
        else:
            continue
        values[key] = float(average[i])
    return values


def figure7_r2(path):
    with open(path) as f:
        for line in f:
            m = re.match(r"headline: r\^2 = ([0-9.]+)", line)
            if m:
                return float(m.group(1))
    raise ValueError(f"{path}: no r^2 headline")


def rules(golden):
    t1 = average_row(os.path.join(golden, "table1_phase_orderings.txt"))
    t2 = average_row(os.path.join(golden, "table2_heuristics.txt"))
    t3 = average_row(os.path.join(golden, "table3_spec_blockcounts.txt"))
    r2 = figure7_r2(os.path.join(golden, "figure7_correlation.txt"))
    others = [t2[k] for k in ("VLIW", "ConvVLIW", "DF")]
    # (name, holds, the numbers it read)
    return [
        ("table1: (IUPO) >= IUPO",
         t1["(IUPO)"] >= t1["IUPO"], f"{t1['(IUPO)']} vs {t1['IUPO']}"),
        ("table1: (IUPO) >= (IUP)O",
         t1["(IUPO)"] >= t1["(IUP)O"], f"{t1['(IUPO)']} vs {t1['(IUP)O']}"),
        ("table1: |IUPO - (IUP)O| <= 1.0",
         abs(t1["IUPO"] - t1["(IUP)O"]) <= 1.0,
         f"{t1['IUPO']} vs {t1['(IUP)O']}"),
        # Known deviation (EXPERIMENTS.md, Table 1): UPIO is as strong as
        # (IUPO) here. Asserted as a deviation, so a fix fails this rule
        # and must update it and EXPERIMENTS.md together.
        ("table1 deviation: UPIO >= (IUPO) - 1.0",
         t1["UPIO"] >= t1["(IUPO)"] - 1.0, f"{t1['UPIO']} vs {t1['(IUPO)']}"),
        ("table2: BF has the highest average",
         all(t2["BF"] > v for v in others), f"{t2['BF']} vs {others}"),
        ("table2: ConvVLIW - VLIW >= 2.0",
         t2["ConvVLIW"] - t2["VLIW"] >= 2.0,
         f"{t2['ConvVLIW']} vs {t2['VLIW']}"),
        ("table3: UPIO < IUPO and UPIO < (IUP)O",
         t3["UPIO"] < t3["IUPO"] and t3["UPIO"] < t3["(IUP)O"],
         f"{t3['UPIO']} vs {t3['IUPO']}, {t3['(IUP)O']}"),
        ("table3: |IUPO - (IUP)O| <= 2.0",
         abs(t3["IUPO"] - t3["(IUP)O"]) <= 2.0,
         f"{t3['IUPO']} vs {t3['(IUP)O']}"),
        ("table3: (IUPO) > IUPO and (IUPO) > (IUP)O",
         t3["(IUPO)"] > t3["IUPO"] and t3["(IUPO)"] > t3["(IUP)O"],
         f"{t3['(IUPO)']} vs {t3['IUPO']}, {t3['(IUP)O']}"),
        ("figure7: r^2 >= 0.70", r2 >= 0.70, f"{r2}"),
    ]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    failed = 0
    for name, holds, read in rules(argv[1]):
        print(f"{'ok  ' if holds else 'FAIL'} {name} ({read})")
        failed += not holds
    if failed:
        print(f"check_paper_shapes: {failed} shape rule(s) broken",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
