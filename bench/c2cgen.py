"""Seeded raw CSV shaped like the Kaggle cell2cell telecom-churn table.

The real CSV is not shipped, so the benchmark generates a stand-in with
every column of ``configs/cell2cell.yaml``, in config order, and every
column kind and missing-value policy it declares:

* ``CustomerID`` (id): distinct integers;
* nine ``numeric-binned`` columns with skewed, mostly-zero or integer
  distributions, so equal-width binning piles rows into a few bins;
* three ``numeric-raw`` small integer counts;
* ``AgeHH1`` (binned, ``fill-value:0``) with about 2% blank cells;
* seven categoricals, ``MaritalStatus`` (``fill-mode``) with about 1%
  blank cells;
* ``Churn`` (target), "Yes" on about 29% of rows. Churners are shifted
  slightly on a few columns so a KNN has signal to find.

Only AgeHH1 and MaritalStatus have blanks: every other column uses the
drop-row policy, and the workloads keep all generated rows.

Run as ``python3 bench/c2cgen.py OUT.csv --rows N --seed S``; the same
arguments give a byte-identical file.
"""

import argparse
import csv

import numpy as np

COLUMNS = [
    "CustomerID", "MonthlyRevenue", "MonthlyMinutes", "TotalRecurringCharge",
    "OverageMinutes", "RoamingCalls", "DroppedCalls", "UnansweredCalls",
    "CustomerCareCalls", "MonthsInService", "UniqueSubs", "ActiveSubs",
    "Handsets", "CurrentEquipmentDays", "AgeHH1", "ChildrenInHH",
    "HandsetRefurbished", "HandsetWebCapable", "CreditRating", "PrizmCode",
    "Occupation", "MaritalStatus", "Churn",
]

CHURN_SHARE = 0.29
AGE_BLANK_SHARE = 0.02
MARITAL_BLANK_SHARE = 0.01

_CATEGORIES = {
    "CreditRating": (
        ["1-Highest", "2-High", "3-Good", "4-Medium", "5-Low", "6-VeryLow", "7-Lowest"],
        [0.17, 0.37, 0.19, 0.10, 0.05, 0.05, 0.07],
    ),
    "PrizmCode": (["Other", "Suburban", "Town", "Rural"], [0.47, 0.32, 0.16, 0.05]),
    "Occupation": (
        ["Other", "Professional", "Crafts", "Clerical", "Self", "Retired", "Student", "Homemaker"],
        [0.74, 0.17, 0.03, 0.02, 0.02, 0.01, 0.007, 0.003],
    ),
    "MaritalStatus": (["Unknown", "Yes", "No"], [0.38, 0.36, 0.26]),
}


def _one_decimal(values):
    return [f"{v:.1f}" for v in values]


def _yes_no(mask):
    return ["Yes" if m else "No" for m in mask]


def _mostly_zero(rng, n, zero_share, draw):
    return np.where(rng.random(n) < zero_share, 0.0, draw)


def make_columns(rows, seed):
    """Column name -> list of cell strings, deterministic in (rows, seed)."""
    rng = np.random.default_rng([seed, 0xC2C])
    n = rows
    churn = rng.random(n) < CHURN_SHARE
    c = churn.astype(float)

    unique_subs = 1 + rng.poisson(0.3, n)
    age = np.where(rng.random(n) < 0.25, 0, np.clip(rng.normal(45, 13, n), 18, 99)).astype(int)
    cols = {
        "CustomerID": [str(3000002 + 4 * i) for i in range(n)],
        "MonthlyRevenue": [f"{v:.2f}" for v in rng.lognormal(np.log(50), 0.55, n) + 3 * c],
        "MonthlyMinutes": _one_decimal(np.round(rng.gamma(1.3, 400, n) * (1 - 0.1 * c))),
        "TotalRecurringCharge": _one_decimal(np.round(np.clip(rng.normal(47, 23, n), 0, None))),
        "OverageMinutes": _one_decimal(_mostly_zero(rng, n, 0.55, np.round(rng.gamma(1.0, 100, n)))),
        "RoamingCalls": _one_decimal(_mostly_zero(rng, n, 0.70, rng.exponential(3.0, n))),
        "DroppedCalls": _one_decimal(rng.gamma(1.2, 5.0, n) * (1 + 0.1 * c)),
        "UnansweredCalls": _one_decimal(rng.gamma(1.2, 25.0, n)),
        "CustomerCareCalls": _one_decimal(
            _mostly_zero(rng, n, 0.45, rng.exponential(4.0, n) * (1 + 0.5 * c))
        ),
        "MonthsInService": [
            str(v) for v in np.clip(rng.integers(6, 62, n) - churn * rng.integers(0, 8, n), 6, None)
        ],
        "UniqueSubs": [str(v) for v in unique_subs],
        "ActiveSubs": [str(v) for v in np.minimum(unique_subs, 1 + rng.poisson(0.2, n))],
        "Handsets": [str(v) for v in 1 + rng.poisson(0.9, n)],
        "CurrentEquipmentDays": [str(int(v)) for v in rng.gamma(2.0, 190.0, n) * (1 + 0.2 * c)],
        "AgeHH1": [
            "" if blank else str(v) for v, blank in zip(age, rng.random(n) < AGE_BLANK_SHARE)
        ],
        "ChildrenInHH": _yes_no(rng.random(n) < 0.25),
        "HandsetRefurbished": _yes_no(rng.random(n) < 0.14),
        "HandsetWebCapable": _yes_no(rng.random(n) < 0.90),
    }
    for name, (levels, probs) in _CATEGORIES.items():
        p = np.asarray(probs) / np.sum(probs)
        cols[name] = [levels[i] for i in rng.choice(len(levels), size=n, p=p)]
    blank = rng.random(n) < MARITAL_BLANK_SHARE
    cols["MaritalStatus"] = ["" if b else v for v, b in zip(cols["MaritalStatus"], blank)]
    cols["Churn"] = _yes_no(churn)
    return cols


def generate(path, rows, seed):
    """Write a ``rows``-row raw CSV to ``path``."""
    cols = make_columns(rows, seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(COLUMNS)
        w.writerows(zip(*(cols[name] for name in COLUMNS)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output")
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    generate(args.output, args.rows, args.seed)


if __name__ == "__main__":
    main()
