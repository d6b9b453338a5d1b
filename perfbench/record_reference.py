"""Record the candidate pools and their reference outcomes into reference.json.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

Every op any seed can draw is run once here: CLI ops as fresh
`python -m ghcseries` processes (exit code and stdout digest), library ops
in-process through the same Session the benchmark worker uses.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ghcseries  # noqa: E402
from ghcseries import cli  # noqa: E402

import common  # noqa: E402
from ops import Session, build_pair  # noqa: E402

# The commands behind tests/golden/, verbatim.
GOLDEN_FILES = {
    "analyze_sl2xsl2-diagonal.json": ["analyze", "--fixture", "sl2xsl2-diagonal"],
    "analyze_sl3-root.json": ["analyze", "--fixture", "sl3-root"],
    "analyze_sl3-principal.json": ["analyze", "--fixture", "sl3-principal"],
    "analyze_sp4-long.json": ["analyze", "--fixture", "sp4-long"],
    "analyze_sp4-short.json": ["analyze", "--fixture", "sp4-short"],
    "analyze_sp4-principal.json": ["analyze", "--fixture", "sp4-principal"],
    "analyze_sp4-principal.table.txt": [
        "analyze", "--fixture", "sp4-principal", "--format", "table",
    ],
    "block_sp4-principal.json": [
        "block", "--fixture", "sp4-principal", "--kappa", "3/2,1/2",
    ],
    "socle_sp4-principal_mu0.json": [
        "socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2",
        "--mu", "0", "--cutoff", "40",
    ],
    "socle_sp4-principal_mu1.json": [
        "socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2",
        "--mu", "1", "--cutoff", "40",
    ],
    "character_sp4-principal_mu3.json": [
        "character", "--fixture", "sp4-principal", "--mu", "3", "--cutoff", "16",
    ],
    "iwasawa_a4.json": ["iwasawa", "--a", "4", "--c", "1/3"],
}

KAPPA_DENOMINATOR = {"integral": 1, "half": 2, "third": 3}
CLI_KAPPAS_PER_PAIR = 8
CANDIDATES = 24
POOL = 6
LARGE_POOL = 3


def _pairing(kappa, alpha) -> Fraction:
    return 2 * sum(k * a for k, a in zip(kappa, alpha)) / sum(a * a for a in alpha)


def _kind(pairings) -> str | None:
    denominators = {p.denominator for p in pairings}
    for kind, d in KAPPA_DENOMINATOR.items():
        if denominators <= {1, d} and (d == 1 or d in denominators):
            return kind
    return None


def regular_kappas(rs, kind: str, count: int, rng: random.Random) -> list[str]:
    """Distinct kappas of the given integrality kind that pair nonzero with every root."""
    d = KAPPA_DENOMINATOR[kind]
    roots = [tuple(alpha.coords) for alpha in rs.roots]
    found: list[str] = []
    for _ in range(100_000):
        if len(found) == count:
            return found
        kappa = tuple(Fraction(rng.randint(-6 * d, 6 * d), d) for _ in range(rs.ambient))
        pairings = [_pairing(kappa, alpha) for alpha in roots]
        if any(p == 0 for p in pairings) or _kind(pairings) != kind:
            continue
        text = ",".join(str(c) for c in kappa)
        if text not in found:
            found.append(text)
    raise RuntimeError(f"found only {len(found)} regular {kind} kappas")


def _norm(alpha) -> Fraction:
    return sum(c * c for c in alpha.coords)


def _root_system(pair: str):
    return build_pair(pair).embedding.rs


def socle_elements(pair: str, kappa: str) -> list[tuple[int, object, int]]:
    """(index, element, f1 calls) of the block elements with mu >= 0 and integral t-weight.

    The f1 call count of an element is the number of nonzero entries in its
    row of the inverse multiplicity matrix.
    """
    p = build_pair(pair)
    cc = ghcseries.central_character_from_kappa(
        ghcseries.Weight(tuple(Fraction(c) for c in kappa.split(","))), p.embedding.rs
    )
    mm = ghcseries.multiplicity_matrix(cc, p)
    return [
        (i, e, sum(1 for c in mm.p_matrix[i] if c))
        for i, e in enumerate(mm.elements)
        if e.mu >= 0 and e.omega.denominator == 1
    ]


def cli_socle_mus(pair: str, kappa: str) -> list[tuple[int, int]]:
    """(mu, f1 calls) for the mu values that select exactly one socle-ready element."""
    elements = socle_elements(pair, kappa)
    mus = [e.mu for _, e, _ in elements]
    return [
        (int(e.mu), calls) for _, e, calls in elements
        if e.mu.denominator == 1 and mus.count(e.mu) == 1
    ]


def modal(items: list, key) -> list:
    """The items whose key is the most common one (the smallest such key on ties).

    Pools keep only inputs of one cost profile, so that the seed changes the
    values a round uses but not how much work it does.
    """
    counts: dict = {}
    for item in items:
        counts[key(item)] = counts.get(key(item), 0) + 1
    best = min(counts, key=lambda k: (-counts[k], k))
    return [item for item in items if key(item) == best]


def build_pools() -> dict:
    rng = random.Random("perfbench-pools")
    analyze_roots = {}
    for label in common.CLI_TYPES + common.CLI_SUMS:
        rs = ghcseries.build_root_system(cli.parse_algebra(label))
        longest = max(_norm(alpha) for alpha in rs.positive_roots)
        analyze_roots[label] = [
            ["analyze", "--algebra", label, "--embedding",
             "root:" + ",".join(str(c) for c in alpha.coords)]
            for alpha in rs.positive_roots
            if _norm(alpha) == longest
        ]
    block, socle = [], []
    for pair in common.CLI_BLOCK_PAIRS:
        rs = _root_system(pair)
        for i in range(CLI_KAPPAS_PER_PAIR):
            kind = common.SESSION_KINDS[i % len(common.SESSION_KINDS)]
            kappa = regular_kappas(rs, kind, 1, rng)[0]
            block.append(["block", *common.pair_args(pair), f"--kappa={kappa}"])
            for mu, _ in cli_socle_mus(pair, kappa):
                socle.append([
                    "socle", *common.pair_args(pair), f"--kappa={kappa}", "--mu", str(mu),
                    "--cutoff", str(common.CLI_SOCLE_CUTOFF),
                ])
    character = [
        ["character", "--fixture", name, "--mu", str(mu)]
        for name in common.CLI_FIXTURES for mu in range(10)
    ]
    cli_pools = {
        "golden": list(GOLDEN_FILES.values()),
        "golden_files": GOLDEN_FILES,
        "analyze_roots": analyze_roots,
        "block": block,
        "socle": socle,
        "character": character,
    }

    sp4 = _root_system("sp4-principal")
    deep_socle = [
        (["socle", "--fixture", "sp4-principal", f"--kappa={kappa}", "--mu", str(mu),
          "--cutoff", str(common.DEEP_SOCLE_CUTOFF)], calls)
        for kind in common.SESSION_KINDS
        for kappa in regular_kappas(sp4, kind, CANDIDATES, rng)
        for mu, calls in cli_socle_mus("sp4-principal", kappa)
    ]
    deep_socle = [argv for argv, _ in modal(deep_socle, key=lambda item: item[1])]
    deep_socle = rng.sample(deep_socle, min(POOL, len(deep_socle)))

    rank2 = {}
    for pair in common.SESSION_RANK2:
        rs = _root_system(pair)
        rank2[pair] = {}
        for kind in common.SESSION_KINDS:
            entries = []
            for kappa in regular_kappas(rs, kind, CANDIDATES, rng):
                elements = socle_elements(pair, kappa)
                profile = (len(elements), sum(calls for _, _, calls in elements))
                entries.append(({"kappa": kappa, "socle": [i for i, _, _ in elements]}, profile))
            entries = [entry for entry, _ in modal(entries, key=lambda item: item[1])]
            rank2[pair][kind] = entries[:POOL]
    large = {
        pair: {
            kind: regular_kappas(_root_system(pair), kind, LARGE_POOL, rng)
            for kind in common.SESSION_KINDS
        }
        for pair in common.SESSION_LARGE
    }
    return {
        "cli-cold": cli_pools,
        "char-deep": {"socle": deep_socle},
        "block-session": {"rank2": rank2, "large": large},
    }


def record_cli(pools: dict) -> dict:
    argvs = list(pools["golden"]) + pools["block"] + pools["socle"] + pools["character"]
    for roots in pools["analyze_roots"].values():
        argvs += roots
    for label in common.CLI_TYPES + common.CLI_SUMS:
        argvs.append(["analyze", "--algebra", label, "--embedding", "principal"])
    for errors in common.CLI_ERRORS.values():
        argvs += errors
    env = common.child_env(ROOT)
    outcomes = {}
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "ghcseries", *argv],
            cwd=ROOT, env=env, capture_output=True, check=False,
        )
        outcomes[common.cli_key(argv)] = f"{proc.returncode}:{common.digest(proc.stdout)}"
    return outcomes


def record_session(workload: str, ops: list[dict]) -> dict:
    session = Session(workload)
    return {op["key"]: session.run(op)[1] for op in ops}


def main() -> int:
    pools = build_pools()
    outcomes = {"cli-cold": record_cli(pools["cli-cold"])}
    deep_ops = [
        op
        for alg, emb in common.DEEP_PAIRS
        for mu in common.DEEP_MUS
        for op in common.deep_pair_ops(alg, emb, mu)
    ]
    deep_ops += [
        {"kind": "main", "key": common.cli_key(argv), "argv": argv}
        for argv in pools["char-deep"]["socle"]
    ]
    outcomes["char-deep"] = record_session("char-deep", deep_ops)
    session_ops = [
        op
        for pair, kinds in pools["block-session"]["rank2"].items()
        for entries in kinds.values()
        for entry in entries
        for op in common.session_rank2_ops(pair, entry)
    ]
    session_ops += [
        op
        for pair, kinds in pools["block-session"]["large"].items()
        for kappas in kinds.values()
        for kappa in kappas
        for op in common.session_large_ops(pair, kappa)
    ]
    outcomes["block-session"] = record_session("block-session", session_ops)
    doc = {"pools": pools, "outcomes": outcomes}
    common.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for workload, table in outcomes.items():
        errors = sum(1 for v in table.values() if v.startswith("!") or v[:2] in ("2:", "3:"))
        print(f"{workload}: {len(table)} reference outcomes, {errors} expected errors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
