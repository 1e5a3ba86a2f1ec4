"""The sweep kernel as it stood before ``g`` became a table lookup and a
run drew its uniforms once: the oracle ``tests/test_sweep_kernel.py``
holds the package's kernel to, bit for bit.

The bodies are the former ``repro.graph.semantics.g_coded`` /
``g_code_array``, ``GibbsCache.delta_energy_block`` / ``commit_block``,
``repro.inference.gibbs.sweep_blocks`` and ``GibbsSampler.sweep``, moved
here unchanged except that a method's ``self`` is the ``cache`` /
``sampler`` argument, and that the two things the substrate no longer
stores are derived on the spot: the uniform-semantics code
(:func:`rule_sem_uniform`) and a body row's pair index
(:func:`body_fsid`).  The scalar kernel (``delta_energy`` /
``commit_flip``) did not change and is the package's own.
"""

import numpy as np

from repro.graph.semantics import SEM_LINEAR, SEM_LOGICAL, SEM_RATIO


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
        if block.use_batch:
            commit_block(
                cache, block, logit_u < delta_energy_block(cache, block, state), state
            )
        else:
            for k, var in enumerate(block.vars.tolist()):
                new_value = bool(logit_u[k] < cache.delta_energy(var, state))
                if new_value != bool(state[var]):
                    cache.commit_flip(var, new_value, state)


def sweep(sampler) -> None:
    """One full pass of ``sampler`` over its free variables, drawing this
    sweep's uniforms by itself."""
    cache = sampler.cache
    state = sampler.state
    cache.refresh_weights(state)
    uniforms = sampler.rng.random(len(sampler.plan.free_vars))
    sweep_blocks(cache, state, sampler.plan.blocks, uniforms)
    sampler.sweeps_done += 1
