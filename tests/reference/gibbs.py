"""The sweep kernel as it stood before ``g`` became a table lookup and a
run drew its uniforms once: the oracle ``tests/test_sweep_kernel.py``
holds the package's kernel to, bit for bit — and the scalar kernel the
package kept beside it for small blocks until its flat arrays became its
one incidence representation.

The block bodies are the former ``repro.graph.semantics.g_coded`` /
``g_code_array``, ``GibbsCache.delta_energy_block`` / ``commit_block``,
``repro.inference.gibbs.sweep_blocks`` and ``GibbsSampler.sweep``, moved
here unchanged except that a method's ``self`` is the ``cache`` /
``sampler`` argument, and that the two things the substrate no longer
stores are derived on the spot: the uniform-semantics code
(:func:`rule_sem_uniform`) and a body row's pair index
(:func:`body_fsid`).

The scalar kernel (:func:`delta_energy` / :func:`commit_flip`, the
former ``GibbsCache`` methods) is the per-variable oracle: it walks
per-variable Python lists, one variable at a time, over a cache's
``field`` / ``unsat`` / ``nsat``.  It reads the lists of any object with
the substrate's former mirror attributes (``py_ising`` / ``py_head`` /
``py_body`` and ``_rule_head_l`` / ``_rule_wid_l`` / ``_rule_sem_l``):
a :class:`IncidenceLists` walked off a substrate's arrays row by row,
or a :class:`~tests.reference.compiled.ReferenceCompiledFactorGraph`,
which keeps its own through every patch.
"""

import numpy as np

from repro.graph.semantics import (
    SEM_LINEAR,
    SEM_LOGICAL,
    SEM_RATIO,
    g_value,
    sems_from_codes,
)


class IncidenceLists:
    """A substrate's live incidences as per-variable Python lists, built
    by walking its arrays one row at a time, in row order: per variable
    its ``(neighbour, wid)`` Ising rows, the rules it heads and does not
    also appear under, and one ``(ri, [(gg, pos), …])`` segment per rule
    whose body it is in."""

    def __init__(self, compiled) -> None:
        n = compiled.num_vars
        self.py_ising = [[] for _ in range(n)]
        self.py_head = [[] for _ in range(n)]
        self.py_body = [[] for _ in range(n)]
        self._rule_head_l = compiled.rule_head.tolist()
        self._rule_wid_l = compiled.rule_wid.tolist()
        self._rule_sem_l = sems_from_codes(compiled.rule_sem)
        for k in range(compiled.ising_row.shape[0]):
            if compiled.ising_alive[k]:
                self.py_ising[int(compiled.ising_row[k])].append(
                    (int(compiled.ising_other[k]), int(compiled.ising_wid[k]))
                )
        in_body = set()
        for k in range(compiled.lit_var.shape[0]):
            gg = int(compiled.lit_gg[k])
            ri = int(compiled.grounding_ri[gg])
            if not compiled.rule_alive[ri]:
                continue
            var = int(compiled.lit_var[k])
            in_body.add((var, ri))
            segs = self.py_body[var]
            if not (segs and segs[-1][0] == ri):
                segs.append((ri, []))
            segs[-1][1].append((gg, bool(compiled.lit_pos[k])))
        for ri, head in enumerate(self._rule_head_l):
            if compiled.rule_alive[ri] and (head, ri) not in in_body:
                self.py_head[head].append(ri)


def delta_energy(cache, lists, var: int, assignment: np.ndarray) -> float:
    """``E(x | x_var=1) − E(x | x_var=0)``, one variable through its
    lists."""
    var = int(var)
    c = lists
    delta = 2.0 * float(cache.field[var])
    w = cache.weights_vec.tolist()
    nsat = cache.nsat

    for ri in c.py_head[var]:
        delta += 2.0 * w[c._rule_wid_l[ri]] * g_value(c._rule_sem_l[ri], int(nsat[ri]))

    unsat = cache.unsat
    current = bool(assignment[var])
    for ri, lits in c.py_body[var]:
        up = down = now = 0
        for gg, pos in lits:
            u = unsat[gg]
            if u == 0:
                now += 1
            if u - (1 if current != pos else 0) == 0:
                if pos:
                    up += 1
                else:
                    down += 1
        head = c._rule_head_l[ri]
        if head == var:
            # The variable heads a rule it appears under:
            # E(1) − E(0) = w·g(n₁) − (−w·g(n₀)).
            base = int(nsat[ri]) - now
            sem = c._rule_sem_l[ri]
            delta += w[c._rule_wid_l[ri]] * (
                g_value(sem, base + up) + g_value(sem, base + down)
            )
        elif up != down:
            base = int(nsat[ri]) - now
            sign = 1.0 if assignment[head] else -1.0
            sem = c._rule_sem_l[ri]
            delta += w[c._rule_wid_l[ri]] * sign * (
                g_value(sem, base + up) - g_value(sem, base + down)
            )
    return delta


def commit_flip(cache, lists, var: int, new_value: bool, assignment: np.ndarray) -> None:
    """Set ``assignment[var] := new_value`` and update the caches, one
    incidence at a time.  ``assignment[var]`` must still hold the *old*
    value on entry."""
    var = int(var)
    old_value = bool(assignment[var])
    new_value = bool(new_value)
    if old_value == new_value:
        return
    assignment[var] = new_value
    ds = 2.0 if new_value else -2.0
    w = cache.weights_vec.tolist()
    for other, wid in lists.py_ising[var]:
        cache.field[other] += w[wid] * ds
    unsat, nsat = cache.unsat, cache.nsat
    for ri, lits in lists.py_body[var]:
        for gg, pos in lits:
            u = unsat[gg]
            if pos == old_value:  # literal was satisfied
                if u == 0:
                    nsat[ri] -= 1
                unsat[gg] = u + 1
            else:
                unsat[gg] = u - 1
                if u == 1:
                    nsat[ri] += 1


def g_code_array(code: int, n: np.ndarray) -> np.ndarray:
    """Vectorised ``g`` for a single semantics *code* (uniform batch)."""
    n = np.asarray(n, dtype=float)
    if code == SEM_LINEAR:
        return n
    if code == SEM_RATIO:
        return np.log1p(n)
    if code == SEM_LOGICAL:
        return (n > 0).astype(float)
    raise ValueError(f"unknown semantics code {code!r}")


def g_coded(codes: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Vectorised ``g`` over parallel arrays of semantics codes and counts."""
    n = np.asarray(n, dtype=float)
    return np.where(
        codes == SEM_RATIO, np.log1p(n), np.where(codes == SEM_LOGICAL, n > 0, n)
    )


def rule_sem_uniform(compiled):
    """The one semantics code of the substrate's rules, or ``None``."""
    rule_sem = compiled.rule_sem
    return (
        int(rule_sem[0])
        if compiled.num_rules and (rule_sem == rule_sem[0]).all()
        else None
    )


def body_fsid(block) -> np.ndarray:
    """Index of the (member, rule) pair each body row of ``block`` belongs to."""
    return np.repeat(
        np.arange(block.fseg_start.size),
        np.diff(block.fseg_start, append=block.body_gg.size),
    )


def _g(cache, codes, n):
    uniform = rule_sem_uniform(cache.compiled)
    if uniform is not None:
        return g_code_array(uniform, n)
    return g_coded(codes, n)


def delta_energy_block(cache, block, assignment: np.ndarray) -> np.ndarray:
    """``delta_energy`` for every variable of a fast block at once."""
    V = block.vars
    delta = 2.0 * cache.field[V]
    w = cache.weights_vec
    if block.head_ri.size:
        g = _g(cache, block.head_sem, cache.nsat[block.head_ri])
        delta += np.bincount(
            block.head_seg,
            weights=2.0 * w[block.head_wid] * g,
            minlength=V.size,
        )
    if block.body_gg.size:
        mismatch = block.body_pos != assignment[block.body_var]
        only_mine = cache.unsat[block.body_gg] == mismatch
        now = cache.nsat[block.fseg_ri]
        flipped = now + np.bincount(
            body_fsid(block),
            weights=np.where(mismatch, 1.0, -1.0) * only_mine,
            minlength=now.size,
        )
        g_now = _g(cache, block.fseg_sem, now)
        g_flipped = _g(cache, block.fseg_sem, flipped)
        current = assignment[block.fseg_var]
        toward_one = assignment[block.fseg_head] != current
        unit = np.where(toward_one, g_flipped - g_now, g_now - g_flipped)
        if block.fseg_self is not None:
            unit = np.where(block.fseg_self, g_now + g_flipped, unit)
        delta += np.bincount(
            block.fseg_pos, weights=w[block.fseg_wid] * unit, minlength=V.size
        )
    return delta


def commit_block(cache, block, new_values, assignment: np.ndarray) -> None:
    """Set a batched block's variables to ``new_values``, caches too."""
    V = block.vars
    changed = new_values != assignment[V]
    if not changed.any():
        return
    assignment[V] = new_values
    if block.ising_seg.size:
        rows = changed[block.ising_seg]
        np.add.at(
            cache.field,
            block.ising_other[rows],
            cache.weights_vec[block.ising_wid[rows]]
            * np.where(new_values[block.ising_seg[rows]], 2.0, -2.0),
        )
    if block.body_gg.size:
        rows = changed[block.body_seg]
        gg = block.body_gg[rows]
        before = cache.unsat[gg]
        after = before + np.where(
            block.body_pos[rows] == assignment[block.body_var[rows]], -1, 1
        )
        cache.unsat[gg] = after
        np.add.at(
            cache.nsat,
            block.body_ri[rows],
            (after == 0).astype(np.int64) - (before == 0),
        )


def sweep_blocks(cache, state, blocks, uniforms) -> None:
    """Resample every variable of ``blocks`` in scan order, in place, from
    one uniform draw per variable, concatenated in block order."""
    with np.errstate(divide="ignore"):  # u == 0 ⇒ −inf: always 1
        logits = np.log(uniforms) - np.log1p(-uniforms)
    offset = 0
    for block in blocks:
        size = block.vars.size
        logit_u = logits[offset : offset + size]
        offset += size
        commit_block(
            cache, block, logit_u < delta_energy_block(cache, block, state), state
        )


def sweep(sampler) -> None:
    """One full pass of ``sampler`` over its free variables, drawing this
    sweep's uniforms by itself — a sampling call, so it takes the
    substrate's current plan first."""
    cache = sampler.cache
    state = sampler.state
    cache.refresh_weights(state)
    sampler.plan = sampler.compiled.plan(sampler.graph)
    uniforms = sampler.rng.random(len(sampler.plan.free_vars))
    sweep_blocks(cache, state, sampler.plan.blocks, uniforms)
    sampler.sweeps_done += 1
