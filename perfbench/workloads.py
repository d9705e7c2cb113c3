"""The benchmark's three workloads: seeded inputs, one timed call each,
and a correctness check against an oracle independent of opscale.

Every workload draws a fixed pool of instances from the seed at set-up.
A pass calls each pool item once, in pool order; the run repeats passes.
`call` is the timed part and `check` runs outside the timed region.
Checks use only numpy and this file, never opscale, so a defect in a
layer cannot also hide in its own check.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

import opscale
from opscale import cli


@dataclass
class Outcome:
    """What `check` learns from one call."""

    ok: bool
    iterations: int = 0
    status: str | None = None
    verdict: str | None = None
    detail: str = ""


def _composition(rng, total, parts):
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]])).astype(np.float64)


def _complex_gaussian(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _spectrum(rng, n, zeros=0):
    """Nonincreasing vector summing to 1 with `zeros` trailing zeros.

    Positive entries lie within a factor 1.5 of each other.  A map with
    r Kraus operators can only be scaled when, among other conditions,
    p_1 <= q_1 + ... + q_r; flat spectra keep every instance well inside
    the feasible set, so each call is expected to succeed.
    """
    v = rng.uniform(1.0, 1.5, n - zeros)
    return np.concatenate([np.sort(v)[::-1] / v.sum(), np.zeros(zeros)])


def _eighths(rng, parts):
    """Two nonincreasing vectors of entries in {2, 3, 4}/8 with equal sums."""
    while True:
        p, q = rng.integers(2, 5, parts), rng.integers(2, 5, parts)
        if p.sum() == q.sum():
            return np.sort(p)[::-1] / 8.0, np.sort(q)[::-1] / 8.0


def _marginals(kraus, P, Q):
    """(T(P), T*(Q)) straight from the Kraus stack."""
    K = np.asarray(kraus)
    primal = np.einsum("kij,jl,kml->im", K, P, K.conj())
    dual = np.einsum("kji,jl,klm->im", K.conj(), Q, K)
    return primal, dual


def _ds_literal(primal, dual, p, q):
    """Flag-weighted squared distance of the marginals from I, one block."""
    total = 0.0
    for dev, a in ((dual - np.eye(dual.shape[0]), p), (primal - np.eye(primal.shape[0]), q)):
        gaps = a - np.append(a[1:], 0.0)
        for i, gap in enumerate(gaps):
            total += gap * np.linalg.norm(dev[:i + 1, :i + 1]) ** 2
    return float(total)


def _rc_feasible(A, r, c, tol=1e-12):
    """Hall-type condition: each row subset's mass fits in the columns it reaches."""
    if abs(r.sum() - c.sum()) > tol * max(1.0, r.sum()):
        return False
    for k in range(1, len(r) + 1):
        for rows in itertools.combinations(range(len(r)), k):
            reach = (A[list(rows)] > 0).any(axis=0)
            if r[list(rows)].sum() > c[reach].sum() + tol:
                return False
    return True


# ---------------------------------------------------------------------------


class Decide3x4:
    """decide_scalable on 3x4 matrix-scaling maps, as in acceptance test 6.

    The iteration cap keeps budget-exhausted calls near 10 iterations.
    About two thirds of the draws reach it, so the median and the 90th
    percentile call both sit in that mode on every seed instead of
    jumping between it and the fast FEASIBLE/INFEASIBLE calls (roughly
    half the draws finish within 25 iterations at any cap above that).
    """

    name = "decide-3x4"
    defaults = {"pool": 600, "cap": 10}

    def __init__(self, seed, params, workdir):
        self.seed, self.params = seed, dict(self.defaults, **params)

    def generate(self):
        rng = np.random.default_rng(self.seed)
        pool = []
        for _ in range(self.params["pool"]):
            while True:
                A = np.where(rng.random((3, 4)) < 0.65, rng.uniform(0.5, 1.5, (3, 4)), 0.0)
                if (A > 0).any():
                    break
            K = int(rng.integers(7, 17))
            r = _composition(rng, K, 3) / 8.0
            c = _composition(rng, K, 4) / 8.0
            spec = opscale.MarginalSpec(c, r, (1,) * 4, (1,) * 3)
            pool.append((A, r, c, spec))
        return pool

    def call(self, item):
        A, _r, _c, spec = item
        return opscale.decide_scalable(opscale.build_matrix_cpmap(A), spec,
                                       max_iterations=self.params["cap"])

    def check(self, item, out):
        A, r, c, _spec = item
        res = out.result
        ok, detail = True, ""
        if out.verdict in ("FEASIBLE", "INFEASIBLE"):
            expected = "FEASIBLE" if _rc_feasible(A, r, c) else "INFEASIBLE"
            ok = out.verdict == expected
            detail = "" if ok else f"verdict {out.verdict}, oracle {expected}"
        elif out.verdict != "INCONCLUSIVE":
            ok, detail = False, f"unknown verdict {out.verdict}"
        return Outcome(ok, res.iterations, res.status, out.verdict, detail)


class DenseSolve:
    """Dense complex-Gaussian maps solved to eps = 1e-6 under the default
    budget, so bit_complexity runs on every call.

    The pool is stratified: every (m = n, r) size and both spectrum kinds
    appear `reps` times, so the seed changes the draws but not the mix
    of sizes that sets the percentiles.
    """

    name = "dense-solve"
    defaults = {"sizes": [8, 16, 32], "ranks": [3, 6, 8], "reps": 2, "epsilon": 1e-6}

    def __init__(self, seed, params, workdir):
        self.seed, self.params = seed, dict(self.defaults, **params)

    def generate(self):
        rng = np.random.default_rng(self.seed)
        p = self.params
        pool = []
        for _rep in range(p["reps"]):
            for m, r, zero_tail in itertools.product(p["sizes"], p["ranks"], (False, True)):
                kraus = [_complex_gaussian(rng, (m, m), 1 / math.sqrt(2 * r * m))
                         for _ in range(r)]
                pz, qz = (m // 4, m // 8) if zero_tail else (0, 0)
                spec = opscale.MarginalSpec(_spectrum(rng, m, pz), _spectrum(rng, m, qz))
                solver_seed = int(rng.integers(2**31))
                pool.append((opscale.CPMap(kraus), spec, zero_tail, solver_seed))
        return pool

    def call(self, item):
        T, spec, zero_tail, solver_seed = item
        config = opscale.SolverConfig(epsilon=self.params["epsilon"], seed=solver_seed)
        if zero_tail:
            return opscale.general_scale(T, spec, config)
        return opscale.triangular_scale(T, spec, config)

    def check(self, item, res):
        T, spec, _zero_tail, _seed = item
        g, h = res.pair.g, res.pair.h
        kraus = [g.conj().T @ A @ h for A in T.kraus]
        primal, dual = _marginals(kraus, np.diag(spec.p), np.diag(spec.q))
        ds = _ds_literal(primal, dual, spec.p, spec.q)
        threshold = self.params["epsilon"] ** 2 * min(spec.p[spec.p > 0].min(),
                                                      spec.q[spec.q > 0].min())
        ok = res.status == "SUCCESS" and ds <= threshold * (1 + 1e-9)
        detail = "" if ok else f"status {res.status}, ds {ds:.3e} > {threshold:.3e}"
        return Outcome(ok, res.iterations, res.status, None, detail)


# ---------------------------------------------------------------------------


def _jsonable(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.stack([a.real, a.imag], axis=-1).tolist()
    return a.tolist()


def _from_json(x):
    a = np.asarray(x, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def _hermitian(rng, n, pd=False):
    G = _complex_gaussian(rng, (n, n))
    return G @ G.conj().T + 0.2 * np.eye(n) if pd else (G + G.conj().T) / 2


def _unitary(rng, n):
    q, r = np.linalg.qr(_complex_gaussian(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass
class Job:
    """One CLI invocation and what its construction makes it return."""

    command: str
    instance: object  # a JSON-able dict, or raw text for malformed input
    expected_exit: int
    args: tuple = ()
    payload: dict | None = None  # instance data the residual check needs


class CliApps:
    """Every subcommand through `opscale.cli.main`, in process, on JSON
    files written at set-up.

    The mix holds solvable instances of each kind, infeasible ones
    (exit 1) and malformed ones (exit 3).  Calls ask for the CLI's
    default accuracy, 1e-2, and the residual checks use the same value.
    `scale` and `matscale` keep
    the default budget, so bit_complexity runs; every other solver call
    passes --max-iters because the default budget is clamped to 10^6.
    """

    name = "cli-apps"
    defaults = {"reps": 16, "epsilon": 1e-2, "max_iters": 5000,
                "matscale_sizes": [4, 6, 8, 10], "forster_points": [8, 16]}

    def __init__(self, seed, params, workdir):
        self.seed, self.params = seed, dict(self.defaults, **params)
        self.workdir = workdir

    def _jobs(self, rng):
        p = self.params
        jobs = []
        for _rep in range(p["reps"]):
            # scale: dense 6x6x3 map, positive spectra.
            kraus = [_complex_gaussian(rng, (6, 6), 1 / 6) for _ in range(3)]
            pv, qv = _spectrum(rng, 6), _spectrum(rng, 6)
            jobs.append(Job("scale", {"kind": "cpmap", "kraus": [_jsonable(K) for K in kraus],
                                      "p": pv.tolist(), "q": qv.tolist()}, 0,
                            payload={"kraus": kraus, "p": pv, "q": qv}))
            # check: m + n = 10 with spectra in eighths, feasible and rank-deficient.
            for feasible in (True, False):
                kraus = [_complex_gaussian(rng, (5, 5), 1 / 5) for _ in range(3)]
                if not feasible:
                    for K in kraus:
                        K[:, -1] = 0.0  # shared kernel: T*(Q) is singular
                pv, qv = _eighths(rng, 5)
                jobs.append(Job("check", {"kind": "cpmap", "kraus": [_jsonable(K) for K in kraus],
                                          "p": pv.tolist(), "q": qv.tolist()},
                                0 if feasible else 1, ("--max-iters", str(p["max_iters"]))))
            # matscale: dense positive n x n; plus one with an empty row.
            for n in p["matscale_sizes"]:
                A = rng.uniform(0.5, 1.5, (n, n))
                rs = _composition(rng, 4 * n, n) / 4.0
                cs = _composition(rng, 4 * n, n) / 4.0
                jobs.append(Job("matscale", {"kind": "matscale", "matrix": A.tolist(),
                                             "row_sums": rs.tolist(), "col_sums": cs.tolist()},
                                0, payload={"row_sums": rs, "col_sums": cs, "matrix": A}))
            A = rng.uniform(0.5, 1.5, (4, 4))
            A[1] = 0.0
            jobs.append(Job("matscale", {"kind": "matscale", "matrix": A.tolist(),
                                         "row_sums": [1.0] * 4, "col_sums": [1.0] * 4}, 1))
            # horn, spectra form: H_i = S^-1/2 X_i S^-1/2 sum to I for PD X_i.
            for s in (2, 3):
                X = [_hermitian(rng, 3, pd=True) for _ in range(s)]
                w, V = np.linalg.eigh(sum(X))
                S = V @ np.diag(w ** -0.5) @ V.conj().T
                spectra = [np.sort(np.linalg.eigvalsh(S @ Xi @ S))[::-1] for Xi in X]
                jobs.append(Job("horn", {"kind": "horn", "spectra": [v.tolist() for v in spectra]},
                                0, ("--max-iters", str(p["max_iters"])),
                                payload={"spectra": spectra}))
            # horn, alpha/beta/gamma of A + B = C; and one breaking the trace identity.
            for feasible in (True, False):
                Ah, Bh = _hermitian(rng, 3), _hermitian(rng, 3)
                alpha, beta = np.linalg.eigvalsh(Ah), np.linalg.eigvalsh(Bh)
                gamma = np.linalg.eigvalsh(Ah + Bh) + (0.0 if feasible else 0.5)
                jobs.append(Job("horn", {"kind": "horn", "alpha": alpha.tolist(),
                                         "beta": beta.tolist(), "gamma": gamma.tolist()},
                                0 if feasible else 1, ("--max-iters", str(p["max_iters"]))))
            # forster: 3 x n generic points; every weight below min(q) keeps
            # each rank-1 and rank-2 subset strictly inside the polymatroid.
            for n in p["forster_points"]:
                U = _complex_gaussian(rng, (3, n))
                wts = rng.uniform(0.5, 1.0, n)
                q = np.full(3, wts.sum() / 3.0)
                jobs.append(Job("forster", {"kind": "forster", "vectors": _jsonable(U),
                                            "weights": wts.tolist(), "spectrum": q.tolist()},
                                0, ("--max-iters", str(p["max_iters"])),
                                payload={"weights": wts, "spectrum": q}))
            # schurhorn: n = 4, diagonal of U diag(q) U^dag (Schur: majorized);
            # and a diagonal that the spectrum does not majorize.  Well
            # separated entries of q keep the iteration count's tail short.
            q = np.arange(4.0, 0.0, -1.0) + rng.uniform(0.0, 0.5, 4)
            q /= q.sum()
            U = _unitary(rng, 4)
            d = np.diag(U @ np.diag(q) @ U.conj().T).real.copy()
            d *= q.sum() / d.sum()
            jobs.append(Job("schurhorn", {"kind": "schurhorn", "diagonal": d.tolist(),
                                          "spectrum": q.tolist()},
                            0, ("--max-iters", str(p["max_iters"])),
                            payload={"diagonal": d, "spectrum": q}))
            jobs.append(Job("schurhorn", {"kind": "schurhorn", "diagonal": [0.7, 0.1, 0.1, 0.1],
                                          "spectrum": [0.4, 0.3, 0.2, 0.1]}, 1,
                            ("--max-iters", str(p["max_iters"]))))
            # malformed: each must exit 3 without a report.
            bad = [
                ("scale", '{"kind": "cpmap", "kraus": [[[1, 0], [0, 1]]], "p": [0.5, 0.5'),
                ("scale", json.dumps({"kind": "unknown"})),
                ("horn", json.dumps({"kind": "matscale", "matrix": [[1.0]],
                                     "row_sums": [1.0], "col_sums": [1.0]})),
                ("check", json.dumps({"kind": "cpmap", "kraus": [[[1, 0], [0]]],
                                      "p": [0.5, 0.5], "q": [0.5, 0.5]})),
                ("scale", json.dumps({"kind": "cpmap", "kraus": [[[1, 0], [0, 1]]],
                                      "p": [0.5, -0.5], "q": [0.5, 0.5]})),
            ]
            jobs.extend(Job(cmd, text, 3) for cmd, text in bad)
        return jobs

    def generate(self):
        rng = np.random.default_rng(self.seed)
        jobs = self._jobs(rng)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        pool = []
        for i, job in enumerate(jobs):
            path = os.path.join(self.workdir, f"{i:03d}-{job.command}.json")
            text = job.instance if isinstance(job.instance, str) else json.dumps(job.instance)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [job.command, path, "--epsilon", repr(self.params["epsilon"]), *job.args]
            pool.append((job, argv))
        return pool

    def call(self, item):
        _job, argv = item
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, item, out):
        job, _argv = item
        code, stdout, stderr = out
        if code != job.expected_exit:
            return Outcome(False, detail=f"{job.command}: exit {code}, expected "
                                          f"{job.expected_exit}: {stderr.strip()[:200]}")
        if code == 3:
            ok = stdout == "" and "Traceback" not in stderr
            return Outcome(ok, status="USAGE", detail="" if ok else "exit 3 with output")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as err:
            return Outcome(False, detail=f"{job.command}: report is not JSON: {err}")
        iterations = int(report.get("iterations") or 0)
        status, verdict = report.get("status"), report.get("verdict")
        if code == 0:
            bad = self._residual_errors(job, report)
        else:
            bad = [] if status in ("ERROR_NOT_PD", "INFEASIBLE") else [f"status {status}"]
        return Outcome(not bad, iterations, status, verdict, "; ".join(bad))

    def _residual_errors(self, job, rep):
        """Residuals recomputed from the report payload, and the report's own."""
        eps = self.params["epsilon"]
        tol = eps * (1 + 1e-9)
        pl = job.payload
        res = {}
        if job.command == "scale":
            g, h = _from_json(rep["g"]), _from_json(rep["h"])
            kraus = [g.conj().T @ K @ h for K in pl["kraus"]]
            primal, dual = _marginals(kraus, np.diag(pl["p"]), np.diag(pl["q"]))
            res["primal"] = np.linalg.norm(primal - np.eye(len(pl["q"])))
            res["dual"] = np.linalg.norm(dual - np.eye(len(pl["p"])))
            res.update({f"report.{k}": v for k, v in rep["marginal_errors"].items()})
        elif job.command == "check":
            if rep.get("verdict") != "FEASIBLE":
                return [f"verdict {rep.get('verdict')}"]
        elif job.command == "matscale":
            B = np.asarray(rep["scaled_matrix"])
            res["row"] = np.abs(B.sum(axis=1) - pl["row_sums"]).max()
            res["col"] = np.abs(B.sum(axis=0) - pl["col_sums"]).max()
            res.update({f"report.{k}": v for k, v in rep["sum_errors"].items()})
        elif job.command == "horn":
            Hs = [_from_json(H) for H in rep["matrices"]]
            res["sum"] = np.linalg.norm(sum(Hs) - np.eye(Hs[0].shape[0]))
            res["report.sum_error"] = rep["sum_error"]
            if pl is not None:
                res["spectra"] = max(np.abs(np.sort(np.linalg.eigvalsh(H))[::-1] - v).max()
                                     for H, v in zip(Hs, pl["spectra"]))
        elif job.command == "forster":
            W = _from_json(rep["vectors"])
            gram = (W * pl["weights"][None, :]) @ W.conj().T
            res["isotropy"] = np.linalg.norm(gram - np.diag(pl["spectrum"]))
            res["unit_norm"] = np.abs(np.linalg.norm(W, axis=0) - 1).max()
            res["report.isotropy_error"] = rep["isotropy_error"]
        elif job.command == "schurhorn":
            H = _from_json(rep["matrix"])
            res["diagonal"] = np.abs(np.diag(H).real - pl["diagonal"]).max()
            res["spectrum"] = np.abs(np.sort(np.linalg.eigvalsh(H))[::-1] - pl["spectrum"]).max()
            res.update({f"report.{k}": v for k, v in rep["errors"].items()})
        return [f"{job.command} {k} {v} > {eps:g}" for k, v in res.items()
                if v is None or not v <= tol]


WORKLOADS = {w.name: w for w in (Decide3x4, DenseSolve, CliApps)}
