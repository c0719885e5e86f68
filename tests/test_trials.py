"""The one random-trial evaluator against the unblocked loops it replaced.

`_num.trial_rows` draws every trial batch (Copson branches, the blocked
tail inequality, strengthened cases, the HLP dual probe) a cache-sized
block at a time from one seeded stream, with the one draw exp(u) for u
uniform on [log 1e-3, log 1e3], and evaluates the blocks on workers
that each walk a fixed stride of them (the calling thread is one).  The
reference functions below are the evaluators it replaced, written out
again here with that draw: each draws its rows in one piece (or in
chunks of 2e6 entries, as the branch loop did) and evaluates them on
the calling thread.  Every report must equal the reference bit for bit,
whatever the block size and the THREADS value.  The worker loop itself
must hand the caller the error of the earliest failing block in row
order, stop after an error, start no more threads than blocks (none at
THREADS=1) and run every block under the caller's np.errstate.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lpcert import (BRANCHES, KINDS, StrengthenedCase, build_weights,
                    check_bge, check_copson_branch, cli, probe_dual_trials,
                    strengthened_trials)
from lpcert import _num
from lpcert._num import RATIO_TOL
from lpcert.copson import BranchReport, branch_constant
from lpcert.hlp import _dual_ratios
from lpcert.strengthened import StrengthenedReport, _profile_rows

# ----------------------------------------------------------------------
# Reference evaluators: whole batches, one thread


def ref_suffix(a):
    return np.cumsum(a[..., ::-1], axis=-1)[..., ::-1]


def ref_branch_parts(w, X, branch, p, c):
    lam = w.values
    base = w.partials if branch.startswith("copson") else w.tails
    xl = X * lam
    if branch.endswith("prefix"):
        sums = np.cumsum(xl, axis=-1)
    else:
        sums = ref_suffix(xl)
    return sums / base, lam * base ** (p - c)


def ref_branch_ratios(w, X, branch, p, c):
    K = branch_constant(branch, p, c)
    X = X / np.max(X, axis=-1, keepdims=True)
    inner, u = ref_branch_parts(w, X, branch, p, c)
    lhs = np.sum(u * inner ** p, axis=-1)
    rhs = K ** p * np.sum(u * X ** p, axis=-1)
    return lhs / rhs


def ref_trial_report(w, branch, p, c_or_alpha, trials, seed, ratios_of):
    rng = np.random.default_rng(seed)
    chunk = max(1, int(2_000_000 // max(w.N, 1)))
    best, best_trial, done = -math.inf, 0, 0
    while done < trials:
        m = min(chunk, trials - done)
        X = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(m, w.N)))
        ratios = ratios_of(X)
        j = int(np.argmax(ratios))
        if float(ratios[j]) > best:
            best = float(ratios[j])
            best_trial = done + j + 1
        done += m
    return BranchReport(branch=branch, p=p, c_or_alpha=c_or_alpha, N=w.N,
                        trials=trials, max_ratio=best,
                        min_margin=1.0 - best, argmin=best_trial,
                        passed=best <= 1.0 + RATIO_TOL)


def ref_check_copson_branch(w, p, c, branch, trials, seed):
    branch_constant(branch, p, c)
    return ref_trial_report(w, branch, p, c, trials, seed,
                            lambda X: ref_branch_ratios(w, X, branch, p, c))


def ref_check_bge(w, p, alpha, trials, seed):
    lam = w.values
    K = (alpha * p + 1.0) ** p
    wa = w.partials ** alpha

    def ratios(X):
        X /= np.max(X, axis=-1, keepdims=True)
        lhs = np.sum(lam * ref_suffix(wa * X) ** p, axis=-1)
        rhs = K * np.sum(lam * wa ** p * ref_suffix(X) ** p, axis=-1)
        return lhs / rhs

    return ref_trial_report(w, "bge", p, alpha, trials, seed, ratios)


def ref_case_parts(case, w, X):
    lam, Lam, Lt = w.values, w.partials, w.tails
    if case.kind in BRANCHES:
        return ref_branch_parts(w, X, case.kind, case.p, case.c)
    ones = np.ones_like(lam)
    if case.kind == "cartlidge":
        return np.cumsum(X * lam, axis=-1) / Lam, ones
    if case.kind == "cartlidge_tail":
        return ref_suffix(X * lam) / Lt, ones
    if case.kind == "dual":
        return lam * ref_suffix(X / Lam), ones
    return lam * np.cumsum(X / Lt, axis=-1), ones


def profiles(N):
    """The deterministic profiles, all made at once."""
    count, fill = _profile_rows(N)
    det = np.empty((count, N))
    fill(0, det)
    return det


def ref_strengthened_trials(case, w, trials, seed):
    det = profiles(w.N)
    n_rand = max(trials - det.shape[0], 0)
    blocks = [det[:trials]]
    if n_rand:
        rng = np.random.default_rng(seed)
        blocks.append(np.exp(rng.uniform(np.log(1e-3), np.log(1e3),
                                         size=(n_rand, w.N))))
    X = np.concatenate(blocks, axis=0)
    p = case.p
    L = case.effective_L(w)
    K = case.constant(L)
    X = X / np.max(X, axis=-1, keepdims=True)
    inner, u = ref_case_parts(case, w, X)
    ip = inner ** (p - 1.0)
    lhs = np.sum(u * inner * ip, axis=-1)
    first = lhs / (K * np.sum(u * X * ip, axis=-1))
    corollary = lhs / (K ** p * np.sum(u * X ** p, axis=-1))
    j = int(np.argmax(first))
    max_ratio = float(first[j])
    cor_max = float(np.max(corollary))
    ok = max_ratio <= 1.0 + RATIO_TOL and cor_max <= 1.0 + RATIO_TOL
    return StrengthenedReport(
        which=case.kind, p=p, c=case.c, L=L, N=w.N, trials=X.shape[0],
        max_ratio=max_ratio, min_margin=1.0 - max_ratio,
        corollary_max_ratio=cor_max, argmax=j + 1, passed=ok,
        note=f"{det.shape[0]} deterministic profiles")


def ref_probe_dual(p, x):
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    arr = arr / np.max(arr)
    q = p / (p - 1.0)
    n = np.arange(1, arr.shape[0] + 1, dtype=np.float64)
    y = np.cumsum(arr / n)
    lhs = np.sum(y ** q)
    rhs = (p / (1.0 - p)) ** q * np.sum(arr ** q)
    return float(lhs / rhs)


def ref_dual_probe(p, N, trials, seed):
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(trials):
        x = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=N))
        worst = max(worst, ref_probe_dual(p, x))
    return worst


# ----------------------------------------------------------------------
# Every path as (library call, reference call) on (weights, trials)

P = 2.5
C_ABOVE, C_BELOW = 2.0, 0.25


def _case(kind):
    c = {"copson_prefix": C_ABOVE, "leindler_tail": C_ABOVE,
         "copson_tail": C_BELOW, "leindler_prefix": C_BELOW}.get(kind)
    return StrengthenedCase(kind=kind, p=P, c=c)


def _weights(N):
    return build_weights("power", N, exponent=0.7)


def _dual_probe_stdout(p, N, trials, seed, capsys):
    assert cli.main(["hlp", "dual-probe", "--p", repr(p), "--N", str(N),
                     "--trials", str(trials), "--seed", str(seed)]) == 0
    return capsys.readouterr().out


PATHS = ([f"branch:{b}" for b in BRANCHES] + ["bge"]
         + [f"strengthened:{k}" for k in KINDS] + ["dual-probe"])


def _outcome(fn):
    """to_dict() with floats as hex (so bits are compared), or the error."""
    try:
        out = fn()
    except ValueError as exc:
        return f"ValueError: {exc}"
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in out.to_dict().items()}


def _pair(path, N, trials, capsys):
    """(library outcome, reference outcome) of one path."""
    w = _weights(N)
    seed = 7 * N + trials
    if path.startswith("branch:"):
        b = path.split(":")[1]
        c = C_ABOVE if b in ("copson_prefix", "leindler_tail") else C_BELOW
        return (_outcome(lambda: check_copson_branch(w, P, c, b, trials,
                                                     seed)),
                _outcome(lambda: ref_check_copson_branch(w, P, c, b, trials,
                                                         seed)))
    if path == "bge":
        return (_outcome(lambda: check_bge(w, P, 0.9, trials, seed)),
                _outcome(lambda: ref_check_bge(w, P, 0.9, trials, seed)))
    if path.startswith("strengthened:"):
        case = _case(path.split(":")[1])
        return (_outcome(lambda: strengthened_trials(case, w, trials, seed)),
                _outcome(lambda: ref_strengthened_trials(case, w, trials,
                                                         seed)))
    p = 0.31
    worst = ref_dual_probe(p, N, trials, seed)
    ref = cli.render_json({"method": "probe-dual", "p": p, "N": N,
                           "trials": trials, "max_ratio": worst,
                           "pass": worst <= 1.0 + 1e-10})
    return _dual_probe_stdout(p, N, trials, seed, capsys), ref


@pytest.mark.parametrize("trials", [1, 7, 300])
@pytest.mark.parametrize("N", [1, 37])
@pytest.mark.parametrize("path", PATHS)
def test_reports_equal_the_unblocked_reference(path, N, trials, monkeypatch,
                                               capsys):
    for threads in ("1", "2", "3", "5"):
        monkeypatch.setenv("THREADS", threads)
        got, ref = _pair(path, N, trials, capsys)
        assert got == ref, f"THREADS={threads}"


@pytest.mark.parametrize("path", PATHS)
def test_tiny_blocks_keep_row_order(path, monkeypatch, capsys):
    # two rows per block: 150 blocks for 300 trials, many in flight
    monkeypatch.setattr(_num, "_BLOCK_ELEMS", 80)
    monkeypatch.setenv("THREADS", "3")
    got, ref = _pair(path, 37, 300, capsys)
    assert got == ref


@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("path", PATHS)
def test_large_rows_equal_the_reference(path, trials, monkeypatch, capsys):
    # at N = 2e4 a block holds 6 rows, so 7 trials take two blocks
    monkeypatch.setenv("THREADS", "2")
    got, ref = _pair(path, 20_000, trials, capsys)
    assert got == ref


@pytest.mark.parametrize("path", ["branch:copson_prefix", "bge",
                                  "strengthened:dual",
                                  "strengthened:copson_tail", "dual-probe"])
def test_full_batches_equal_the_reference(path, monkeypatch, capsys):
    # 300 x 2e4, the sweep's batch size: 50 blocks
    monkeypatch.setenv("THREADS", "3")
    got, ref = _pair(path, 20_000, 300, capsys)
    assert got == ref


@pytest.mark.parametrize("p, trials, message", [
    (2.0, 0, "need 0 < p < 1"), (2.0, 5, "need 0 < p < 1"),
    (0.32, 0, "need trials >= 1"), (0.32, -3, "need trials >= 1")])
def test_dual_probe_rejects_a_bad_p_or_no_trials(p, trials, message,
                                                 capsys):
    # checked before any vector is drawn, as the other trial batches do
    with pytest.raises(ValueError, match=message):
        probe_dual_trials(p, 30, trials)
    assert cli.main(["hlp", "dual-probe", "--p", repr(p), "--N", "30",
                     "--trials", str(trials)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("N", [0, -5])
def test_dual_probe_rejects_N_below_1(N, capsys):
    # the message of probe_primal and mu_direct, before any vector is drawn
    with pytest.raises(ValueError, match="need N >= 1"):
        probe_dual_trials(0.3, N, 5)
    assert cli.main(["hlp", "dual-probe", "--p", "0.3", "--trials", "5",
                     "--N", str(N)]) == 2
    assert "error: need N >= 1" in capsys.readouterr().err


def test_evaluator_errors_reach_the_caller(monkeypatch):
    monkeypatch.setenv("THREADS", "2")
    # (probe_dual_trials checks p itself before it draws a row)
    with pytest.raises(ValueError, match="need 0 < p < 1"):
        _num.trial_rows(30, 5000, 0,
                        lambda X, work: _dual_ratios(2.0, X, work))
    with pytest.raises(FloatingPointError):
        with np.errstate(over="raise"):
            _num.trial_rows(10, 5000, 0, lambda X, work: X * 1e306)


# ----------------------------------------------------------------------
# The draw: advanced PCG64 blocks on the workers, and exp(u)


def ref_rows(seed, trials, N):
    """The rows of every batch: exp(u), u uniform on [log 1e-3, log 1e3],
    from one default_rng(seed) stream."""
    U = np.random.default_rng(seed).uniform(np.log(1e-3), np.log(1e3),
                                            size=(trials, N))
    return np.exp(U)


@pytest.mark.parametrize("threads", ["1", "2", "5"])
@pytest.mark.parametrize("N", [1, 7, 2 ** 16 - 1, 2 ** 16 + 1, 20_000])
def test_worker_blocks_are_one_default_rng_stream(N, threads, monkeypatch):
    # each worker advances its own PCG64 to its block's first draw; the
    # blocks together must be the rows of one default_rng(seed) stream,
    # transformed by np.exp, bit for bit
    monkeypatch.setenv("THREADS", threads)
    rows = max(1, _num._BLOCK_ELEMS // N)
    trials = 2 * rows + 3          # two full blocks and a short one
    seed = 11 * N + int(threads)

    def evaluate(X, work):
        assert all(a.shape == X.shape for a in work)
        return X.copy()

    got = _num.trial_rows(N, trials, seed, evaluate)
    assert got.shape == (trials, N)
    assert got.tobytes() == ref_rows(seed, trials, N).tobytes()


def test_worker_blocks_under_fast_thread_switching(monkeypatch):
    # 5 workers on 2 cores, a thread switch every microsecond and 3 rows
    # to a block: each worker's generator and buffers must stay its own
    monkeypatch.setenv("THREADS", "5")
    monkeypatch.setattr(_num, "_BLOCK_ELEMS", 3 * 37)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _num.trial_rows(37, 3001, 4, lambda X, work: X.copy())
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == ref_rows(4, 3001, 37).tobytes()


# ----------------------------------------------------------------------
# The worker loop: errors, stopping, thread count, errstate


def _one_row_blocks(monkeypatch, threads, trials, seed=3, N=37):
    """THREADS and one-row blocks of length N; returns block_of(X), the
    block index (row number) of a block's rows."""
    monkeypatch.setenv("THREADS", str(threads))
    monkeypatch.setattr(_num, "_BLOCK_ELEMS", N)
    first = ref_rows(seed, trials, N)[:, 0]
    return lambda X: int(np.flatnonzero(first == X[0, 0])[0])


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
def test_earliest_failing_block_wins(threads, monkeypatch):
    # block 6 fails at once; block 5, on another worker when there are
    # several, fails only after it: the caller still gets block 5's error
    block_of = _one_row_blocks(monkeypatch, threads, 40)
    six_failed = threading.Event()

    def evaluate(X, work):
        i = block_of(X)
        if i == 6:
            six_failed.set()
            raise ValueError("block 6")
        if i == 5:
            assert six_failed.wait(timeout=10 if threads > 1 else 0) == (
                threads > 1)
            raise ValueError("block 5")
        return X[:, 0].copy()

    with pytest.raises(ValueError, match="block 5"):
        _num.trial_rows(37, 40, 3, evaluate)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_workers_stop_after_an_error(threads, monkeypatch):
    # every block from 10 on fails: each worker stops at its first
    # failing block, so no block past 10 + threads - 1 is evaluated
    # (of 1000)
    block_of = _one_row_blocks(monkeypatch, threads, 1000)
    seen, lock = [], threading.Lock()

    def evaluate(X, work):
        i = block_of(X)
        with lock:
            seen.append(i)
        if i >= 10:
            raise ValueError(f"block {i}")
        return X[:, 0].copy()

    with pytest.raises(ValueError, match="block 10$"):
        _num.trial_rows(37, 1000, 3, evaluate)
    assert set(range(11)) <= set(seen) <= set(range(10 + threads))
    assert len(seen) == len(set(seen))


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.mark.parametrize("threads, trials, started", [
    (1, 50, 0),     # the calling thread walks all 50 blocks
    (8, 3, 3),      # 3 blocks: one thread each
    (8, 1, 0),      # one block runs on the calling thread
    (3, 50, 3),
])
def test_workers_started(threads, trials, started, monkeypatch):
    block_of = _one_row_blocks(monkeypatch, threads, trials)
    monkeypatch.setattr(_CountedThread, "started", 0)
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    callers = set()

    def evaluate(X, work):
        callers.add(threading.get_ident())
        return np.array([block_of(X)])

    got = _num.trial_rows(37, trials, 3, evaluate)
    assert got.tolist() == list(range(trials))
    assert _CountedThread.started == started
    assert (callers == {threading.get_ident()}) == (started == 0)


@pytest.mark.parametrize("threads", [1, 3])
def test_caller_errstate_reaches_every_worker(threads, monkeypatch):
    _one_row_blocks(monkeypatch, threads, 30)
    seen, lock = [], threading.Lock()

    def evaluate(X, work):
        with lock:
            seen.append((threading.get_ident(), np.geterr()))
        return X[:, 0].copy()

    with np.errstate(over="raise", under="warn", divide="ignore",
                     invalid="print"):
        want = np.geterr()
        _num.trial_rows(37, 30, 3, evaluate)
    assert len(seen) == 30
    assert all(err == want for _, err in seen)
    # with several workers no block ran on the calling thread
    idents = {ident for ident, _ in seen}
    assert (idents == {threading.get_ident()}) == (threads == 1)


# ----------------------------------------------------------------------
# Memory of one batch, counted by tracemalloc


@pytest.mark.parametrize("name, N, mib", [
    *(pytest.param(name, 20_000, 6, id=name)
      for name in ("branch", "bge", "strengthened", "dual-probe")),
    pytest.param("strengthened", 100_000, 14, id="strengthened-100000")])
def test_trial_batch_peak_memory(name, N, mib, monkeypatch):
    # at 300 x 2e4 one unblocked temporary is 46 MiB; the unblocked
    # strengthened batch peaked at 326 MiB, and blocks drawn on the
    # calling thread and evaluated in fresh temporaries at 7.7-10.4 MiB;
    # each of the two workers now holds three buffers of 3 x 2e4.  At
    # 300 x 1e5 the strengthened profiles, evaluated as one (8, N) block
    # in two fresh (8, N) arrays, peaked at 18.3 MiB; a block at a time
    # the peak is building the profiles themselves
    monkeypatch.setenv("THREADS", "2")
    w = _weights(N)
    run = {"branch": lambda: check_copson_branch(w, P, C_ABOVE,
                                                 "copson_prefix", 300, 1),
           "bge": lambda: check_bge(w, P, 0.9, 300, 1),
           "strengthened": lambda: strengthened_trials(_case("dual"), w,
                                                       300, 1),
           "dual-probe": lambda: probe_dual_trials(0.31, N, 300, 1)}
    tracemalloc.start()
    try:
        run[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("N", [*range(1, 40), 4097, 20_000])
def test_deterministic_profiles_are_np_unique_rows(N):
    # strengthened reports index into these rows, so their order is
    # np.unique's lexicographic one
    n = np.arange(1, N + 1, dtype=np.float64)
    rows = [np.ones(N)]
    for pos in (0, N // 2, N - 1):
        spike = np.full(N, 1e-6)
        spike[pos] = 1.0
        rows.append(spike)
    rows += [n ** -0.6, n ** -1.1, n ** -2.0, n ** 0.5]
    ref = np.unique(np.stack(rows), axis=0)
    got = profiles(N)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_nan_ratios_fail_the_batch():
    # a NaN ratio is a failure that the worst-row rule reports at the
    # first row (the chunked loop skipped such chunks and reported a pass
    # at -inf)
    j, maxima, passed = _num.trial_verdict(np.full((30, 1), math.nan))
    assert math.isnan(maxima[0]) and not passed
    assert j == 0
    # at p = 150 both sides of every bge trial overflow, so each ratio
    # would be inf/inf: by the range rule of the branch trials that is a
    # domain error before any ratio is reported
    w = build_weights("constant", 1000)
    with pytest.raises(ValueError, match="bge power sums leave the binary64 "
                       "range at p = 150"):
        check_bge(w, 150.0, 0.6, trials=30)


def test_trial_verdict_rules_on_every_column():
    # the first row of the largest first-column ratio; every column's
    # maximum must pass, a NaN in any column failing the batch
    R = np.array([[0.5, 1.0], [0.9, 0.2], [0.9, 1.0 + 2 * RATIO_TOL]])
    assert _num.trial_verdict(R) == (1, [0.9, 1.0 + 2 * RATIO_TOL], False)
    R[2, 1] = 1.0 + RATIO_TOL
    assert _num.trial_verdict(R) == (1, [0.9, 1.0 + RATIO_TOL], True)
    R[0, 1] = math.nan
    assert not _num.trial_verdict(R)[2]
    assert _num.ratio_ok(1.0 + RATIO_TOL) and not _num.ratio_ok(math.nan)


@pytest.mark.parametrize("N", [1, 3, 2000, 20_000, 10**6])
def test_unit_weight_range_floor_is_2N_range_floors(N):
    # the non-Copson strengthened cases sum with u = 1 and take this
    # floor without forming np.ones(N); every partial sum is exact, so
    # the two agree
    assert _num.range_floor(np.ones(N)) == 2.0 * N * _num._RANGE_FLOOR


def _old_range_ratios(lhs, K, rhs, floors):
    """The one-column rule range_ratios replaced, run once per column."""
    with np.errstate(over="ignore", invalid="ignore"):
        den = K * rhs
        if not ((lhs >= floors[0]) & (rhs >= floors[1]) & (lhs < math.inf)
                & (den < math.inf)).all():
            raise ValueError("out of range")
        return lhs / den


def test_range_ratios_is_the_one_column_rule_per_column():
    # S = [lhs, rhs_1, rhs_2] with constants K_1, K_2: a domain error
    # when lhs or any rhs is below its floor, lhs or any K_j rhs_j is
    # inf, or any sum is NaN; otherwise the old per-column quotients bit
    # for bit
    rng = np.random.default_rng(3)
    S = np.exp(rng.uniform(-300.0, 300.0, size=(50, 3)))
    K, floors = (3.0, 1e-7), (1e-200, 1e-250, 1e-150)
    got = _num.range_ratios("case", 2.5, S, K, floors)
    want = np.stack([_old_range_ratios(S[:, 0], K[j], S[:, j + 1],
                                       (floors[0], floors[j + 1]))
                     for j in range(2)], axis=-1)
    assert got.shape == (50, 2) and got.tobytes() == want.tobytes()
    message = r"^case power sums leave the binary64 range at p = 2.5; lower p$"
    for col, value in [(0, 1e-201), (1, 1e-251), (2, 1e-151), (0, math.inf),
                       (1, math.inf), (2, math.inf), (0, math.nan),
                       (1, math.nan), (2, math.nan)]:
        bad = S.copy()
        bad[17, col] = value
        with pytest.raises(ValueError, match=message):
            _num.range_ratios("case", 2.5, bad, K, floors)
    # a finite rhs_j whose K_j rhs_j overflows
    bad = S.copy()
    bad[4, 1] = 1e308
    with pytest.raises(ValueError, match=message):
        _num.range_ratios("case", 2.5, bad, K, floors)
