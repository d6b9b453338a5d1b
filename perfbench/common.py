"""Shared definitions of the ghcseries benchmark: workloads, rounds, digests.

Nothing here imports ghcseries. The candidate pools that the seeded rounds
draw from live in reference.json next to this file, together with the
outcome each candidate op had when the reference was recorded.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("cli-cold", "char-deep", "block-session")

# Seed kept out of every tuning run; a performance claim must also hold on it.
HELD_OUT_SEED = 7919

# cli-cold: total-rank <= 4 types, each analyzed with the principal and one
# seeded root embedding; the isomorphic duplicates B1, C1, D2, D3 are left out.
CLI_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2")
CLI_SUMS = ("A1+C2", "A2+A2", "A1+A1+A1+A1", "G2+A1+A1")
CLI_BLOCK_PAIRS = ("sl3-principal", "sp4-principal", "sl2xsl2-diagonal", "G2")
CLI_FIXTURES = (
    "sl2xsl2-diagonal", "sl3-root", "sl3-principal", "sp4-long", "sp4-short", "sp4-principal",
)
CLI_SOCLE_CUTOFF = 40
CLI_PER_ROUND = {"block": 2, "socle": 2, "character": 2}
# Expected errors kept by the exit-code contract: exit 2 for an unknown
# fixture or an unparsable algebra, exit 3 for type E.
CLI_ERRORS = {
    "unknown-fixture": [
        ["analyze", "--fixture", name]
        for name in ("sl4-principal", "sp6-long", "g2-short", "so5-principal", "sl2")
    ],
    "unparsable-algebra": [
        ["analyze", "--algebra", text, "--embedding", "principal"]
        for text in ("C2-", "2C", "A", "C2++A1", "Cx2")
    ],
    "type-E": [
        ["analyze", "--algebra", text, "--embedding", "principal"]
        for text in ("E6", "E7", "E8", "E6+A1")
    ],
}
CLI_ERRORS_PER_KIND = 1

# char-deep: principal and highest-root embeddings, a cutoff ladder that
# doubles at each rung, and the E1 page over a kappa window on the F1
# character of the top rung.
DEEP_PAIRS = (
    ("C4", "principal"), ("C4", "root:2,0,0,0"),
    ("B4", "principal"), ("B4", "root:1,1,0,0"),
    ("G2", "principal"), ("G2", "root:2,-1,-1"),
    ("C2", "principal"), ("C2", "root:2,0"),
    ("A2", "principal"), ("A2", "root:1,0,-1"),
)
DEEP_LADDER = (50, 100, 200, 400)
DEEP_MUS = tuple(range(10))
DEEP_E1_WINDOW = 8
DEEP_SOCLE_CUTOFF = 800
DEEP_SOCLE_PER_ROUND = 1

# block-session: rank-2 pairs get central character, multiplicity matrix and
# socle characters; the large pairs get central character and block.
SESSION_RANK2 = ("sl3-principal", "sp4-principal", "sl2xsl2-diagonal", "G2")
# Large pairs and how many kappa kinds each gets per round.
SESSION_LARGE = {"B3": 3, "A4": 1, "D4": 1, "C4": 1}
SESSION_KINDS = ("integral", "half", "third")
# Kappas per rank-2 pair and integrality kind in a round.
SESSION_RANK2_KAPPAS = 3
SESSION_SOCLE_CUTOFF = 160


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def canonical(obj) -> str:
    """Deterministic JSON text for nested lists/dicts of ints, strs and rationals."""
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def _plain(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def pair_args(pair: str) -> list[str]:
    """CLI options naming a pair: a fixture name, or an algebra with its principal embedding."""
    if pair in CLI_FIXTURES:
        return ["--fixture", pair]
    return ["--algebra", pair, "--embedding", "principal"]


def cli_key(argv) -> str:
    return " ".join(argv)


def child_env(root: Path) -> dict:
    """Environment of every process the benchmark starts: the checkout's src only.

    Bytecode caching stays on, as it is for users, so that only the first
    process in a fresh checkout compiles the modules.
    """
    env = dict(os.environ)
    for name in (
        "GHCSERIES_CUTOFF", "GHCSERIES_STATS", "PYTHONSTARTUP", "PYTHONHOME",
        "PYTHONDONTWRITEBYTECODE",
    ):
        env.pop(name, None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_round(pools: dict, seed: int) -> list[dict]:
    """One round of cli-cold ops, shuffled; each op is one fresh process."""
    rng = random.Random(f"cli-cold/{seed}")
    argvs = [list(a) for a in pools["golden"]]
    for label in CLI_TYPES + CLI_SUMS:
        argvs.append(["analyze", "--algebra", label, "--embedding", "principal"])
        argvs.append(rng.choice(pools["analyze_roots"][label]))
    for kind, k in CLI_PER_ROUND.items():
        argvs += rng.sample(pools[kind], k)
    for kind in sorted(CLI_ERRORS):
        argvs += rng.sample(CLI_ERRORS[kind], CLI_ERRORS_PER_KIND)
    rng.shuffle(argvs)
    golden = {cli_key(a): name for name, a in pools["golden_files"].items()}
    return [
        {"kind": "cli", "key": cli_key(a), "argv": a, "golden": golden.get(cli_key(a))}
        for a in argvs
    ]


def deep_character_argv(alg: str, emb: str, mu: int, cutoff: int) -> list[str]:
    return [
        "character", "--algebra", alg, "--embedding", emb,
        "--mu", str(mu), "--cutoff", str(cutoff),
    ]


def deep_e1_key(alg: str, emb: str, mu: int, cutoff: int) -> str:
    return f"e1 {alg} {emb} mu={mu} cutoff={cutoff}"


def deep_pair_ops(alg: str, emb: str, mu: int) -> list[dict]:
    """The cutoff ladder of one pair, then the E1 window on its top-rung F1 character."""
    ops = []
    for cutoff in DEEP_LADDER:
        argv = deep_character_argv(alg, emb, mu, cutoff)
        ops.append({"kind": "main", "key": cli_key(argv), "argv": argv})
    top = DEEP_LADDER[-1]
    ops.append({
        "kind": "e1", "key": deep_e1_key(alg, emb, mu, top), "pair": f"{alg} {emb}",
        "source": cli_key(deep_character_argv(alg, emb, mu, top)),
        "kappas": list(range(mu - DEEP_E1_WINDOW // 2, mu + DEEP_E1_WINDOW // 2)),
    })
    return ops


def deep_round(pools: dict, seed: int) -> list[dict]:
    """One round of char-deep ops: a ladder and E1 window per pair, then socles."""
    rng = random.Random(f"char-deep/{seed}")
    ops = []
    for alg, emb in DEEP_PAIRS:
        ops += deep_pair_ops(alg, emb, rng.choice(DEEP_MUS))
    for argv in rng.sample(pools["socle"], DEEP_SOCLE_PER_ROUND):
        ops.append({"kind": "main", "key": cli_key(argv), "argv": argv})
    return ops


def session_key(op: str, pair: str, kappa: str, extra: str = "") -> str:
    return f"{op} {pair} kappa={kappa}{extra}"


def session_rank2_ops(pair: str, entry: dict) -> list[dict]:
    """Central character, multiplicity matrix, then every socle the entry lists."""
    kappa = entry["kappa"]
    ops = [
        {"kind": "cc", "key": session_key("cc", pair, kappa), "pair": pair, "kappa": kappa},
        {"kind": "mm", "key": session_key("mm", pair, kappa), "pair": pair, "kappa": kappa},
    ]
    for index in entry["socle"]:
        ops.append({
            "kind": "socle", "pair": pair, "kappa": kappa, "index": index,
            "cutoff": SESSION_SOCLE_CUTOFF,
            "key": session_key("socle", pair, kappa, f" #{index} cutoff={SESSION_SOCLE_CUTOFF}"),
        })
    return ops


def session_large_ops(pair: str, kappa: str) -> list[dict]:
    return [
        {"kind": "cc", "key": session_key("cc", pair, kappa), "pair": pair, "kappa": kappa},
        {"kind": "eb", "key": session_key("eb", pair, kappa), "pair": pair, "kappa": kappa},
    ]


def session_round(pools: dict, seed: int) -> list[dict]:
    """One round of block-session calls; later calls reuse earlier calls' results.

    The calls of one kappa on one pair form one op (one block query), and
    carry its index as "op".
    """
    rng = random.Random(f"block-session/{seed}")
    queries = []
    for pair in SESSION_RANK2:
        for kind in SESSION_KINDS:
            for entry in rng.sample(pools["rank2"][pair][kind], SESSION_RANK2_KAPPAS):
                queries.append(session_rank2_ops(pair, entry))
    for pair, kinds in SESSION_LARGE.items():
        for kind in rng.sample(SESSION_KINDS, kinds):
            queries.append(session_large_ops(pair, rng.choice(pools["large"][pair][kind])))
    return [dict(call, op=index) for index, calls in enumerate(queries) for call in calls]


def op_index(calls: list[dict]) -> list[int]:
    """The op each call of a round belongs to: its own, unless it carries an "op" index."""
    return [call.get("op", pos) for pos, call in enumerate(calls)]


ROUND_BUILDERS = {"cli-cold": cli_round, "char-deep": deep_round, "block-session": session_round}


def build_round(reference: dict, workload: str, seed: int) -> list[dict]:
    return ROUND_BUILDERS[workload](reference["pools"][workload], seed)


# Workloads whose op latency is the op's fastest round. A char-deep run holds
# 25-40 rounds, each in a fresh worker, so every op's minimum rests on that
# many cold samples and drops the stretches in which the shared machine ran
# slow. A block-session run holds 7-10 rounds and a cli-cold run 2-4, too few
# for a steady minimum: their figures pool every op of every round.
FASTEST_ROUND_WORKLOADS = ("char-deep",)


def tail_percentile(n_stated: int) -> float:
    """Highest percentile with at least ten of n_stated ops beyond it.

    It is fixed by the workload's stated size (one round), so every run of a
    seed reads the same quantile however many rounds fit in the window.
    """
    if n_stated <= 10:
        return 0.0
    return math.floor(1000.0 * (n_stated - 10) / n_stated) / 10.0


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    index = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[index - 1]
