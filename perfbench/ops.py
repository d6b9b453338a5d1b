"""In-process execution of char-deep and block-session ops.

A Session builds the workload's pairs and parabolics once (its set-up), then
runs ops one at a time. Each op returns its latency, timed around the library
call only, and its outcome: a digest of the result, or "!" plus the type name
of the error it raised.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from fractions import Fraction

import ghcseries
from ghcseries import cli

from common import (
    DEEP_PAIRS,
    SESSION_LARGE,
    SESSION_RANK2,
    canonical,
    digest,
)


def _coords(weight) -> list:
    return list(weight.coords)


def _element(e) -> dict:
    return {
        "mu": e.mu, "omega": e.omega, "nu": _coords(e.nu), "w_length": e.w.length,
        "dim_e": e.dim_e, "merged_count": e.merged_count,
    }


def _central(cc) -> dict:
    return {
        "representative": _coords(cc.representative), "regular": cc.regular,
        "integral": cc.integral, "orbit_size": cc.orbit_size,
    }


def _matrix(mm) -> dict:
    return {
        "elements": [_element(e) for e in mm.elements],
        "m": mm.m_matrix, "p": mm.p_matrix, "orbit_ids": mm.orbit_ids,
        "integral_group_order": mm.integral_group_order,
    }


def _socle(result) -> dict:
    return {
        "element": _element(result.element),
        "mults": sorted(result.character.mults.items()),
        "genuine_socle": result.genuine_socle,
    }


def parse_kappa(text: str):
    return ghcseries.Weight(tuple(Fraction(c) for c in text.split(",")))


def build_pair(pair: str):
    """Parabolic of a fixture name, "ALG" (principal) or "ALG EMBEDDING"."""
    if pair in ghcseries.FIXTURES:
        return ghcseries.get_fixture(pair).build_parabolic()
    alg, _, emb = pair.partition(" ")
    rs = ghcseries.build_root_system(cli.parse_algebra(alg))
    return ghcseries.minimal_parabolic(cli.parse_embedding(emb or "principal", rs))


def run_main(argv) -> tuple[float, int, str]:
    """cli.main with stdout captured; returns latency, exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        latency = time.perf_counter() - t0
    return latency, code, buf.getvalue()


class Session:
    """Pairs of one workload plus the results later ops build on."""

    def __init__(self, workload: str):
        if workload == "char-deep":
            names = [f"{alg} {emb}" for alg, emb in DEEP_PAIRS]
        else:
            names = list(SESSION_RANK2) + list(SESSION_LARGE)
        self.parabolics = {name: build_pair(name) for name in names}
        self.results: dict = {}

    def run(self, op: dict) -> tuple[float, str]:
        kind = op["kind"]
        if kind == "main":
            latency, code, out = run_main(op["argv"])
            self.results[op["key"]] = out
            return latency, f"{code}:{digest(out.encode())}"
        if kind == "e1":
            return self._e1(op)
        return self._library(op)

    def _e1(self, op: dict) -> tuple[float, str]:
        p = self.parabolics[op["pair"]]
        doc = json.loads(self.results[op["source"]])
        mults = {d: c for d, c in doc["k_character_F1"]["mults"]}
        character = ghcseries.KCharacter(mults, cutoff=doc["cutoff"])
        dims = []
        t0 = time.perf_counter()
        try:
            for kappa in op["kappas"]:
                for j in range(p.r + 2):
                    dims.append(ghcseries.e1_page_dimension(character, p, j, kappa))
        except ghcseries.GhcseriesError as exc:
            return time.perf_counter() - t0, "!" + type(exc).__name__
        return time.perf_counter() - t0, digest(canonical(dims).encode())

    def _library(self, op: dict) -> tuple[float, str]:
        kind, pair, kappa = op["kind"], op["pair"], op["kappa"]
        p = self.parabolics[pair]
        cc_key, mm_key = ("cc", pair, kappa), ("mm", pair, kappa)
        t0 = time.perf_counter()
        try:
            if kind == "cc":
                result = ghcseries.central_character_from_kappa(parse_kappa(kappa), p.embedding.rs)
                latency = time.perf_counter() - t0
                self.results[cc_key] = result
                doc = _central(result)
            elif kind == "mm":
                result = ghcseries.multiplicity_matrix(self.results[cc_key], p)
                latency = time.perf_counter() - t0
                self.results[mm_key] = result
                doc = _matrix(result)
            elif kind == "eb":
                result = ghcseries.enumerate_block(self.results[cc_key], p)
                latency = time.perf_counter() - t0
                doc = [_element(e) for e in result]
            elif kind == "socle":
                mm = self.results[mm_key]
                result = ghcseries.socle_k_character(p, mm, mm.elements[op["index"]], op["cutoff"])
                latency = time.perf_counter() - t0
                doc = _socle(result)
            else:
                raise ValueError(f"unknown op kind {kind!r}")
        except (ghcseries.GhcseriesError, KeyError, IndexError) as exc:
            return time.perf_counter() - t0, "!" + type(exc).__name__
        return latency, digest(canonical(doc).encode())
