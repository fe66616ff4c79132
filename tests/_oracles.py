"""Hand-rolled reference implementations the test suite checks against.

Everything here is deliberately written from scratch against the definitions
(direct enumeration, linear solves, closed forms) rather than reusing library
code paths, so agreement is meaningful.
"""

import functools
import itertools
import math

import numpy as np
from scipy.integrate import solve_ivp


def heat_bath(x):
    if x > 0:
        return math.exp(-x) / (1.0 + math.exp(-x))
    return 1.0 / (1.0 + math.exp(x))


def mean_field_mfpt(N, beta, J):
    """Exact mean first-passage time M(0) >= ... > 0 for the mean-field bit.

    The all-up state has k=0 overturned spins; magnetization N - 2k stops
    being positive once k reaches ceil(N/2).  The magnetization is a lumped
    birth-death chain (all states with equal k are exchangeable), so the
    MFPT solves a tridiagonal linear system.
    """
    k_abs = (N + 1) // 2
    size = k_abs  # transient states k = 0 .. k_abs-1
    A = np.zeros((size, size))
    b = -np.ones(size)
    for k in range(size):
        M = N - 2 * k
        up = (N - k) * heat_bath(beta * (2.0 * J / N) * (M - 1.0))
        down = k * heat_bath(beta * (2.0 * J / N) * (-M - 1.0))
        A[k, k] = -(up + down)
        if k + 1 < size:
            A[k, k + 1] = up
        if k - 1 >= 0:
            A[k, k - 1] = down
    tau = np.linalg.solve(A, b)
    return tau[0]


def absorbing_mfpt(model, beta):
    """Exact mean time for an Ising kind to reach M <= 0 from all spins up.

    The mean first-passage times tau solve Q_TT^T tau = -1 on the transient
    states (M > 0) of ``build_generator``, whose entry (y, x) is the rate of
    x -> y.  State x has spin -1 at site i iff bit i of x is set, so all up
    is state 0 and M = N - 2 popcount(x).
    """
    from memlab.exact import build_generator

    Q = build_generator(model, beta).matrix.toarray()
    n = model.N
    x = np.arange(1 << n)
    M = n - 2 * np.array([bin(v).count("1") for v in x])
    transient = x[M > 0]
    tau = np.linalg.solve(Q[np.ix_(transient, transient)].T, -np.ones(len(transient)))
    return float(tau[0])


@functools.cache
def _trivial_star_block(L, beta):
    """Coset representatives of the toric code at L, and the eigenpairs of the
    trivial star block S = D^-1 G D of their chain, D = diag(e^(-beta E / 2)).

    Both readouts are functions of the star coset, so the trivial block is an
    exact chain for them.  One eigensolve per (L, beta) serves every readout.
    """
    from memlab.exact import StarBlocks
    from memlab.lattice import build_model

    blocks = StarBlocks(build_model("Kitaev2D", L=L), beta)
    d = np.exp(-0.5 * beta * blocks.energies)
    S = blocks.block(0).toarray()
    G = d[:, None] * S / d  # rate of r -> r' at (r', r)
    assert np.abs(G.sum(axis=0)).max() < 1e-9 * np.abs(np.diag(G)).max()
    lam, V = np.linalg.eigh(S)
    return blocks.reps, d, lam, V


def probe_chain_lifetime(L, beta, decoder, t_max):
    """Exact mean toric-code lifetime at the default probe cadence.

    Probes fall at n tau, tau = e^(2 beta) / (4 L^2); the readout (bare: the
    parity of errors on the row-0 horizontal edges, the Z-type loop mu = 1;
    matching: that times the crossing parity of ``decode_matching``'s
    correction) fails at the first probe reading -1, and a run with no failure
    by the last probe, N = floor(t_max / tau), is censored at t_max.  With
    M = P+ e^(G tau), P+ keeping the representatives that read +1, the
    survival after n probes is S_n = 1^T M^n e0 and the mean lifetime is
    tau sum_{n<N} S_n + (t_max - N tau) S_N.  On the states that read +1,
    M = D A D^-1 with A the symmetric +1 part of e^(S tau); its eigenvalues
    mu in [0, 1) give both terms in closed form, sum_{n<N} mu^n =
    (1 - mu^N) / (1 - mu).
    """
    from memlab.decoder import decode_matching
    from memlab.lattice import Syndrome

    assert decoder in ("bare", "matching")
    reps, d, lam, V = _trivial_star_block(L, beta)
    tau = 0.5 * math.exp(2.0 * beta) / (2 * L * L)
    row0 = (1 << L) - 1  # edges 0 .. L-1: row y = 0 of torus_edges
    reads_plus = []
    for r in reps.tolist():
        if decoder == "matching":  # the readout of error xor correction
            edges = [e for e in range(2 * L * L) if r >> e & 1]
            syn = Syndrome(brute_plaquette_syndrome(edges, L), "plaquette")
            r ^= sum(1 << e for e in decode_matching(syn, L).edges)
        reads_plus.append((r & row0).bit_count() % 2 == 0)
    keep = np.flatnonzero(reads_plus)
    assert reps[keep[0]] == 0  # the clean state reads +1
    A = (V[keep] * np.exp(lam * tau)) @ V[keep].T
    mu, W = np.linalg.eigh(A)
    assert mu.max() < 1.0  # the chain leaves the +1 states
    weight = (W.T @ d[keep]) * (W[0] / d[keep[0]])  # S_n = sum(weight * mu^n)
    n = math.floor(t_max / tau)
    tail = mu ** n
    return float(tau * np.sum(weight * (1.0 - tail) / (1.0 - mu))
                 + (t_max - n * tau) * np.sum(weight * tail))


def translation_orbit_gap(L, beta, move_rate=None):
    """Toric-code gap from one star block per orbit of the L^2 translations.

    The translation orbits are grouped here with sets, and every block is
    solved by LAPACK (L = 2) or by ``eigsh`` from an all-ones start (L = 3):
    the trivial block's second eigenvalue against the top eigenvalue of each
    other orbit's smallest character.
    """
    import scipy.sparse.linalg as spla

    from memlab.exact import StarBlocks
    from memlab.lattice import build_model

    kw = {} if move_rate is None else {"move_rate": move_rate}
    blocks = StarBlocks(build_model("Kitaev2D", L=L, **kw), beta)

    def shift(chi, dx, dy):
        return sum(1 << ((s // L + dy) % L * L + (s % L + dx) % L)
                   for s in range(L * L) if chi >> s & 1)

    todo, firsts = set(blocks.characters.tolist()), []
    while todo:
        chi = min(todo)
        todo -= {shift(chi, dx, dy) for dx in range(L) for dy in range(L)}
        firsts.append(chi)

    def top(chi, k):
        B = blocks.block(chi)
        if L == 2:
            return np.linalg.eigvalsh(B.toarray())[-k]
        return min(spla.eigsh(B, k=k, which="LA", v0=np.ones(B.shape[0]),
                              return_eigenvectors=False))

    assert firsts[0] == 0
    return float(-max([top(0, 2)] + [top(chi, 1) for chi in firsts[1:]]))


def ring_energy(spins, J):
    n = len(spins)
    return -J * sum(spins[i] * spins[(i + 1) % n] for i in range(n))


def mean_field_energy(spins, J):
    n = len(spins)
    return -J / (2.0 * n) * sum(spins) ** 2


def boltzmann(energies, beta):
    e = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


# --- the n-fold-way event loop, one trajectory at a time --------------------


def reference_evolve(model, beta, tape, t_max, cadence=None, predicate=None):
    """One trajectory from the clean start (all up / no errors) by the draw
    rule of the ``dynamics`` docstring, with no incremental bookkeeping.

    This is the sampler's draw and event loop as they stood before the loop
    was inlined, written out for one trajectory, except that every bucket
    is rebuilt from the state after each flip: a class key is computed from
    the model's tables (s_i times the neighbour sum, s_i, or the occupation
    of the edge's two plaquettes) for every site.  The rates are
    ``_shared.flip_rates`` of the current state, read anew for every draw.
    ``predicate(state)`` after each flip ends the run, with the state an
    int8 spin array or a frozenset of edges.  Returns (events, probes,
    final state, end time, censored): events as (t, site, rate, key), probes
    as (t, magnetization or anyon count).
    """
    from memlab._shared import flip_rates

    kitaev = model.kind == "Kitaev2D"
    n_sites = model.N
    spins, errors, anyons = [1] * n_sites, set(), set()

    def key(i):
        if kitaev:
            p, q = model.edge_plaquettes[i].tolist()
            return (p in anyons) + (q in anyons)
        if model.kind == "IsingMeanField":
            return spins[i]
        return spins[i] * sum(spins[j] for j in model.neighbours[i].tolist())

    def obs():
        return len(anyons) if kitaev else sum(spins)

    def state():
        return frozenset(errors) if kitaev else np.array(spins, dtype=np.int8)

    events, probes = [], []
    t = 0.0
    next_probe = cadence if cadence else math.inf
    last = math.nextafter(math.inf, 0.0) if t_max == math.inf else math.inf
    while True:
        rates = flip_rates(model, beta, obs())
        members = {k: [i for i in range(n_sites) if key(i) == k] for k in rates}
        total = 0.0
        for k in rates:
            total += len(members[k]) * rates[k]
        if total <= 0.0:
            t_next = math.inf
        else:
            e, u1, u2 = next(tape)
            u = u1 * total
            acc = 0.0
            for k in rates:
                w = len(members[k]) * rates[k]
                if w > 0.0:
                    acc += w
                    chosen = k
                    if acc > u:
                        break
            lst = members[chosen]
            site = lst[min(int(u2 * len(lst)), len(lst) - 1)]
            t_next = t + e / total
        if t_next > last:
            raise RuntimeError("absorbing state")
        while next_probe <= min(t_next, t_max):
            probes.append((next_probe, float(obs())))
            next_probe += cadence
        if t_next > t_max:
            return events, probes, state(), t_max, True
        t = t_next
        events.append((t, site, rates[chosen], chosen))
        if kitaev:
            errors ^= {site}
            anyons ^= set(model.edge_plaquettes[site].tolist())
        else:
            spins[site] = -spins[site]
        if predicate is not None and predicate(state()):
            return events, probes, state(), t, False


# --- toric-code geometry, rebuilt from scratch -----------------------------


def torus_edges(L):
    """Edge list as ((site), (site)) pairs: horizontal block then vertical."""
    edges = []
    for y in range(L):
        for x in range(L):
            edges.append(((x, y), ((x + 1) % L, y)))
    for y in range(L):
        for x in range(L):
            edges.append(((x, y), (x, (y + 1) % L)))
    return edges


def plaquette_edge_sets(L):
    """For each plaquette (x, y): the 4 bounding edge indices (independent walk)."""
    sets = []
    for y in range(L):
        for x in range(L):
            bottom = y * L + x
            top = ((y + 1) % L) * L + x
            left = L * L + y * L + x
            right = L * L + y * L + (x + 1) % L
            sets.append(frozenset({bottom, top, left, right}))
    return sets


def star_edge_sets(L):
    """For each vertex (x, y): the 4 incident edge indices (independent walk)."""
    sets = []
    for y in range(L):
        for x in range(L):
            left = y * L + (x - 1) % L
            right = y * L + x
            down = L * L + ((y - 1) % L) * L + x
            up = L * L + y * L + x
            sets.append(frozenset({left, right, down, up}))
    return sets


def brute_plaquette_syndrome(error_edges, L):
    """Plaquettes with odd overlap against the rebuilt edge sets."""
    err = set(error_edges)
    return frozenset(p for p, es in enumerate(plaquette_edge_sets(L))
                     if len(es & err) % 2 == 1)


def boundary_group(L):
    """All 2^(L*L) star products: the plaquette-syndrome-free contractible sets.

    X-type error chains live on the dual lattice, so the sets invisible to
    every plaquette stabilizer are generated by vertex stars, not faces.
    """
    stars = star_edge_sets(L)
    out = set()
    for bits in range(1 << (L * L)):
        acc = set()
        for s in range(L * L):
            if (bits >> s) & 1:
                acc ^= set(stars[s])
        out.add(frozenset(acc))
    return out


def homology_coefficients(edge_set, L, boundaries, conjugate_cycles):
    """(c1, c2) such that edge_set ~ c1*X1 + c2*X2 up to a boundary."""
    for c1, c2 in itertools.product((0, 1), repeat=2):
        trial = set(edge_set)
        if c1:
            trial ^= set(conjugate_cycles[0])
        if c2:
            trial ^= set(conjugate_cycles[1])
        if frozenset(trial) in boundaries:
            return c1, c2
    raise AssertionError("edge set not in any homology class (broken oracle)")


def min_pairing_weight(points, dist):
    """Exact minimum-weight perfect matching by recursion over (2k-1)!! pairings."""
    pts = tuple(points)
    if not pts:
        return 0.0

    def rec(remaining):
        if not remaining:
            return 0.0
        first, rest = remaining[0], remaining[1:]
        best = math.inf
        for i, other in enumerate(rest):
            sub = rest[:i] + rest[i + 1:]
            best = min(best, dist(first, other) + rec(sub))
        return best

    return rec(pts)


def recursive_pair_exact(anyons: list, dist):
    """The decoder's former subset DP, kept verbatim: minimum-cost perfect
    pairing by top-down recursion, memoised by subset mask.

    ``best(mask)`` pairs the lowest anyon ``i`` of ``mask`` with each partner
    ``b`` in ascending order and keeps the first strict minimum of
    ``dist[i][b] + best(mask without i, b)``.  The planned DP must return
    the same pair list, tie-breaks included.
    """
    best = {0: 0}
    partner = {}

    def solve(mask):
        cost = best.get(mask)
        if cost is not None:
            return cost
        low = mask & -mask
        i = low.bit_length() - 1  # lowest set anyon
        rest = mask ^ low
        row = dist[i]
        cost, pick = math.inf, None
        j = rest
        while j:
            bit = j & -j
            b = bit.bit_length() - 1
            cand = row[b] + solve(rest ^ bit)
            if cand < cost:
                cost, pick = cand, b
            j ^= bit
        best[mask] = cost
        partner[mask] = pick
        return cost

    mask = (1 << len(anyons)) - 1
    solve(mask)
    pairs = []
    while mask:
        i = (mask & -mask).bit_length() - 1
        b = partner[mask]
        pairs.append((anyons[i], anyons[b]))
        mask &= ~((1 << i) | (1 << b))
    return pairs


def matrix_pair_greedy(anyons: list, dist: list):
    """The decoder's former greedy pairing, kept verbatim: it reads a k x k
    matrix where the decoder now reads each anyon's cached distance row.

    Nearest-neighbour pairing: repeatedly match the first unpaired anyon.
    """
    todo = list(range(len(anyons)))
    pairs = []
    while todo:
        i = todo.pop(0)
        row = dist[i]
        j_best = min(todo, key=row.__getitem__)  # todo ascends: ties go to the lowest j
        todo.remove(j_best)
        pairs.append((anyons[i], anyons[j_best]))
    return pairs


def torus_dist(a, b, L):
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    return min(dx, L - dx) + min(dy, L - dy)


# --- driven two-level closed forms ------------------------------------------


def relax_p1(p1_0, delta, gamma, beta, t):
    """Occupation of the upper level after time t at fixed splitting delta."""
    p_eq = heat_bath(beta * delta)
    return p_eq + (p1_0 - p_eq) * math.exp(-gamma * t)


def quasistatic_extracted(E, beta):
    """Work extracted by an infinitely slow ramp of one level from E to 0."""
    return (math.log(2.0) - math.log(1.0 + math.exp(-beta * E))) / beta


def mean_sigma_ode(schedule, p0, rates="heat-bath"):
    """Exact mean trajectory entropy production for a two-level protocol.

    Integrates the flip-flux expectation sum_{x!=y} r p ln(r_fwd/r_bwd)
    alongside the master equation and adds the Shannon boundary terms
    S(p_fin) - S(p_init).
    """
    def shannon(p):
        return -sum(v * math.log(v) for v in p if v > 0)

    p1 = p0[1]
    acc = 0.0
    for seg in schedule.segments:
        if not seg.coupled:
            continue
        T = seg.t1 - seg.t0
        de0 = (seg.eps0[1] - seg.eps0[0]) / T
        de1 = (seg.eps1[1] - seg.eps1[0]) / T

        def rhs(t, y):
            q1, _ = y
            d = (seg.eps1[0] + de1 * (t - seg.t0)) - (seg.eps0[0] + de0 * (t - seg.t0))
            up, down = two_level_rates(d, schedule.gamma, schedule.beta, rates)
            flux = up * (1.0 - q1) - down * q1
            return (flux, flux * math.log(up / down))

        sol = solve_ivp(rhs, (seg.t0, seg.t1), (p1, acc), rtol=1e-10,
                        atol=1e-12, method="DOP853")
        p1, acc = float(sol.y[0, -1]), float(sol.y[1, -1])
    p_fin = (1.0 - p1, p1)
    return acc + shannon(p_fin) - shannon(tuple(p0))


def two_level_rates(delta, gamma, beta, rates):
    """(up, down) from the definitions: heat bath gamma / (1 + e^{+-x}),
    Metropolis gamma min(1, e^{-+x}), x = beta delta."""
    x = beta * delta
    if rates == "heat-bath":
        return gamma * heat_bath(x), gamma * heat_bath(-x)
    return gamma * min(1.0, math.exp(-x)), gamma * min(1.0, math.exp(x))


def master_dop853(schedule, p0, rates="heat-bath"):
    """Adaptive DOP853 solve of the driven two-level master equation, at rtol 1e-13.

    Work and heat are integrated as extra components, dW/dt = sum_i p_i eps_i'
    and dQ/dt = sum_i eps_i p_i'; jumps and decoupled segments do work on
    frozen populations.  Returns (times, q1) on the output grid of
    ``integrate_master`` (start, one point per jump, 8 per decoupled and 32
    per coupled segment), [(work, heat)] per step, and the final q1.
    """
    p1 = float(p0[1])
    ts, qs, ledger = [schedule.t_start], [p1], []
    for step in schedule.steps:
        if not step.coupled:
            ledger.append(((1.0 - p1) * (step.eps0[1] - step.eps0[0])
                           + p1 * (step.eps1[1] - step.eps1[0]), 0.0))
            grid = [step.t0] if step.t0 == step.t1 else np.linspace(step.t0, step.t1, 9)[1:]
            ts += list(grid)
            qs += [p1] * len(grid)
            continue
        T = step.t1 - step.t0
        de0 = (step.eps0[1] - step.eps0[0]) / T
        de1 = (step.eps1[1] - step.eps1[0]) / T

        def rhs(t, y, step=step, de0=de0, de1=de1):
            e0 = step.eps0[0] + de0 * (t - step.t0)
            e1 = step.eps1[0] + de1 * (t - step.t0)
            up, down = two_level_rates(e1 - e0, schedule.gamma, schedule.beta, rates)
            dq = up * (1.0 - y[0]) - down * y[0]
            return dq, (1.0 - y[0]) * de0 + y[0] * de1, (e1 - e0) * dq

        sol = solve_ivp(rhs, (step.t0, step.t1), (p1, 0.0, 0.0), method="DOP853",
                        rtol=1e-13, atol=1e-15, dense_output=True)
        grid = np.linspace(step.t0, step.t1, 33)[1:]
        ts += list(grid)
        qs += sol.sol(grid)[0].tolist()
        p1 = float(sol.y[0, -1])
        ledger.append((float(sol.y[1, -1]), float(sol.y[2, -1])))
    return np.array(ts), np.array(qs), ledger, p1


def sigma_samples_by_rule(schedule, n_traj, seed, p0, rates="heat-bath"):
    """Entropy-production samples rebuilt by the draw rule of the ``_shared``
    docstring, trajectory i straight from
    ``default_rng(SeedSequence(seed, spawn_key=(i,)))``.

    The rates are the library's ``two_level_rates`` and p_fin its
    ``integrate_master``, so agreement by ``==`` checks the stream and the
    thinning, not the rate law.
    """
    from memlab.exact import integrate_master, two_level_rates

    gamma, beta = schedule.gamma, schedule.beta
    p_fin = integrate_master(schedule, p0, rates=rates).p_final
    samples = []
    for i in range(n_traj):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        exps, unis = [], []

        def triple():
            if not exps:  # a block: 64 exponentials, then 64 uniform pairs
                exps.extend(rng.standard_exponential(64)[::-1].tolist())
                unis.extend(rng.random((64, 2))[::-1].tolist())
            return exps.pop(), unis.pop()

        x = 0 if triple()[1][0] < p0[0] else 1
        sigma = math.log(p0[x])
        for seg in schedule.segments:
            if not seg.coupled:
                continue
            T = seg.t1 - seg.t0
            t = seg.t0
            while True:
                e, (u1, _) = triple()
                t += e / gamma
                if t >= seg.t1:
                    break
                e0 = seg.eps0[0] + (seg.eps0[1] - seg.eps0[0]) / T * (t - seg.t0)
                e1 = seg.eps1[0] + (seg.eps1[1] - seg.eps1[0]) / T * (t - seg.t0)
                up, down = two_level_rates(e1 - e0, gamma, beta, rates)
                fwd, bwd = (up, down) if x == 0 else (down, up)
                if u1 * gamma < fwd:
                    sigma += math.log(fwd / bwd)
                    x = 1 - x
        samples.append(sigma - math.log(p_fin[x]))
    return np.array(samples)


# ---------------------------------------------------------------------------
# the toolkit sweep, one sample at a time


def _herm(m):
    return 0.5 * (m + m.conj().T)


def _trace_norm(m):
    return float(np.abs(np.linalg.eigvalsh(_herm(m))).sum())


def _vn_entropy(m):
    lam = np.clip(np.linalg.eigvalsh(_herm(m)), 0.0, None)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def _wishart_state(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def _isometry_channel(dim, n_kraus, rng):
    g = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, _ = np.linalg.qr(g)
    return [q[i * dim:(i + 1) * dim] for i in range(n_kraus)]


def _kraus_apply(kraus, m):
    out = np.zeros((kraus[0].shape[0],) * 2, dtype=np.complex128)
    for k in kraus:
        out += k @ m @ k.conj().T
    return _herm(out)


def toolkit_sweep_loop(n, rng, code_channels):
    """The per-sample loop that ``qtoolkit.toolkit_sweep`` replaced.

    Same draws, same arithmetic, one matrix and one LAPACK call at a time.
    ``code_channels`` is the (noise, recovery, encoder) Kraus lists of the
    repetition code.  Returns (worst contraction gap, isometry fields as
    (precondition_ok, failures, pairs, max_deviation, passed), min Fannes
    slack, number of Fannes pairs pulled into the window).
    """
    window = 1.0 / math.e
    worst = -math.inf
    for _ in range(n):
        kraus = _isometry_channel(2, 3, rng)
        a, b = _wishart_state(2, rng), _wishart_state(2, rng)
        gap = (_trace_norm(_kraus_apply(kraus, a) - _kraus_apply(kraus, b))
               - _trace_norm(a - b))
        worst = max(worst, gap)

    noise, recovery, encoder = code_channels
    code = [_kraus_apply(encoder, _wishart_state(2, rng)) for _ in range(12)]
    failures = []
    for i, s in enumerate(code):
        dev = _trace_norm(_kraus_apply(recovery, _kraus_apply(noise, s)) - s)
        if dev > 1e-8:
            failures.append((i, dev))
    if failures:
        iso = (False, tuple(failures), 0, math.inf, False)
    else:
        dev_max, pairs = 0.0, 0
        for i, j in itertools.combinations(range(len(code)), 2):
            d_t = _trace_norm(_kraus_apply(noise, code[i]) - _kraus_apply(noise, code[j]))
            dev_max = max(dev_max, abs(d_t - _trace_norm(code[i] - code[j])))
            pairs += 1
        iso = (True, (), pairs, dev_max, dev_max <= 1e-8)

    min_slack, pulls = math.inf, 0
    for i in range(n):
        dim = 2 if i % 2 == 0 else 3
        a, b = _wishart_state(dim, rng), _wishart_state(dim, rng)
        d = _trace_norm(a - b)
        if d > window:
            t = 0.9 * window / d
            b = (1.0 - t) * a + t * b
            d = _trace_norm(a - b)
            pulls += 1
        allowance = d * math.log(dim) - d * math.log(d) if d else 0.0
        min_slack = min(min_slack, allowance - abs(_vn_entropy(a) - _vn_entropy(b)))
    return worst, iso, min_slack, pulls

