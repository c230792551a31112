"""Differential tests: the union-find merger, the grouped compatibility
masks and the indexed quotient construction against the reference versions
in ``tests/merge_oracle.py``, on seeded families."""

import copy
import random

from supred.automata import serialize_automaton
from supred.errors import CoverError
from supred.reduction import (
    Cover,
    _congruence_from_merges,
    _MergePartition,
    build_super,
    generate_equivalent_supervisor,
    induce_quotient,
    reduce_exact_minimum,
    reduce_heuristic,
    validate_cover,
)
from supred.supervision import (
    closed_incompatibility,
    control_data,
    successor_incompatibility,
)

from tests import merge_oracle, table_oracle
from tests.generators import (
    loose_instance,
    partial_observation_pair,
    random_alphabet,
    random_feasible_supervisor,
    random_plant,
    scale_pair,
)


def _random_pair(rng, min_states=40, max_states=80):
    """A 40-80 state partial-observation supervisor against a small plant."""
    while True:
        alphabet = random_alphabet(rng, max_events=5, require_unobservable=True)
        g = random_plant(rng, alphabet, max_states=10, uncontrollable_complete=True)
        try:
            s = random_feasible_supervisor(rng, alphabet, max_states=max_states, full_gamma=True)
        except ValueError:  # too few observable events for a spanning tree
            continue
        if s.n >= min_states:
            return g, s


def _assert_same_heuristic(g, s):
    """Same cover and byte-identical quotient as the reference merger."""
    data = control_data(g, s)
    pairs = [(i, j) for i in range(s.n) for j in range(i + 1, s.n)]
    expected, _ = merge_oracle._congruence_from_merges(s, data, pairs)
    reduced, report = reduce_heuristic(g, s)
    assert report.cover == expected
    reference = merge_oracle.induce_quotient_by_scan(s, data, expected, reduced.name)
    assert serialize_automaton(reduced) == serialize_automaton(reference)
    return report


def _assert_same_quotient(s, data, cover):
    quotient = induce_quotient(s, data, cover, name="Q")
    reference = merge_oracle.induce_quotient_by_scan(s, data, cover, "Q")
    assert serialize_automaton(quotient) == serialize_automaton(reference)


def test_masks_match_pairwise_compatible():
    rng = random.Random(5)
    for _ in range(20):
        g, s = loose_instance(rng, max_plant=8, max_sup=10, max_events=5)
        data = control_data(g, s)
        table = merge_oracle.table_of_masks(data.incompatibility_masks())
        assert table == merge_oracle.compatibility_table(data)


def test_scale_pairs_match_oracle():
    for seed in range(10):
        g, s = scale_pair(random.Random(seed), core_states=8, factor=5)
        report = _assert_same_heuristic(g, s)
        assert report.output_size <= 8


def test_sweep_matches_oracle_at_factor_12():
    """Large enough for learned refusals and the mask-driven sweep to skip
    most pairs: the cover must still be the oracle's."""
    for seed in range(6):
        g, s = scale_pair(random.Random(seed), core_states=8, factor=12)
        _assert_same_heuristic(g, s)


def test_failed_merge_marks_cells_incompatible():
    """After a refused attempt the two cells are marked incompatible, so
    retrying any member pair is refused after one union examined and
    leaves the partition as it was."""
    checked = 0
    for seed in range(6):
        g, s = scale_pair(random.Random(seed), core_states=8, factor=5)
        masks = control_data(g, s).incompatibility_masks()
        part = _MergePartition(s, masks)
        for i in range(s.n):
            for j in range(i + 1, s.n):
                ri, rj = part.find(i), part.find(j)
                if part.try_merge(i, j):
                    continue
                cell_i, cell_j = part.members[ri], part.members[rj]
                assert part.incompatible[ri] & cell_j == cell_j
                assert part.incompatible[rj] & cell_i == cell_i
                if masks[i] >> j & 1:
                    continue  # refused by the base masks alone
                if checked == 60:
                    continue
                parent = part.parent.copy()
                for x in (x for x in range(s.n) if cell_i >> x & 1):
                    for y in (y for y in range(s.n) if cell_j >> y & 1):
                        before = part.steps
                        assert not part.try_merge(x, y)
                        assert part.steps == before + 1
                assert part.parent == parent
                checked += 1
    assert checked == 60


def test_sweep_examines_few_unions():
    """Regression guard on a 200-state inflated supervisor: the canonical
    pair loop examines 17,716 unions (42,067 without learned refusals),
    the mask-driven sweep 232 on the base masks, 210 on the one-step masks
    and 196 when it also closes them at its first refused attempt."""
    g, s = scale_pair(random.Random(0), 8, 25)
    _, report = reduce_heuristic(g, s)
    assert report.steps <= 25_000
    pairs = [(i, j) for i in range(s.n) for j in range(i + 1, s.n)]
    cover, pair_loop_steps = _congruence_from_merges(s, control_data(g, s), pairs)
    assert cover == report.cover
    assert report.steps * 10 < pair_loop_steps


def test_loose_instances_match_oracle():
    for seed in range(61):
        g, s = loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5)
        _assert_same_heuristic(g, s)
        _assert_same_heuristic(g, build_super(g, s))


def test_random_partial_observation_pairs_match_oracle():
    rng = random.Random(11)
    for _ in range(8):
        g, s = _random_pair(rng)
        _assert_same_heuristic(g, s)


def test_shuffled_truncated_orders_match_oracle():
    """The ``generate_equivalent_supervisor`` path: shuffled pair orders
    cut at a random length, on finest supervisors."""
    rng = random.Random(17)
    checked = 0
    while checked < 40:
        g, s = loose_instance(rng, max_plant=6, max_sup=6)
        sup = build_super(g, s)
        data = control_data(g, sup)
        pairs = [(i, j) for i in range(sup.n) for j in range(i + 1, sup.n)]
        rng.shuffle(pairs)
        cut = pairs[: rng.randint(0, len(pairs))]
        cover, _ = _congruence_from_merges(sup, data, cut)
        expected, _ = merge_oracle._congruence_from_merges(sup, data, cut)
        assert cover == expected
        _assert_same_quotient(sup, data, cover)
        seed = rng.randrange(2**32)
        # generate_equivalent_supervisor draws its order exactly like this
        draw = random.Random(seed)
        order = [(i, j) for i in range(sup.n) for j in range(i + 1, sup.n)]
        draw.shuffle(order)
        expected, _ = merge_oracle._congruence_from_merges(
            sup, data, order[: draw.randint(0, len(order))])
        reference = merge_oracle.induce_quotient_by_scan(
            sup, data, expected, f"{s.name}-equiv-{seed}")
        generated = generate_equivalent_supervisor(g, s, seed)
        assert serialize_automaton(generated) == serialize_automaton(reference)
        checked += 1


def test_generate_equivalent_matches_pair_list_draw():
    """``generate_equivalent_supervisor`` shuffles pair codes, not a list of
    pair tuples; ``random.shuffle`` draws depend only on the length, so 256
    draws give byte-identical supervisors to the pair-list version."""
    instances = [loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5)
                 for seed in range(60)]
    instances += [scale_pair(random.Random(seed), core_states=8, factor=5) for seed in range(4)]
    draws = random.Random(29)
    for g, s in instances:
        for seed in (0, -1, 2**64 + 7, draws.randrange(2**64)):
            generated = generate_equivalent_supervisor(g, s, seed)
            reference = merge_oracle.generate_equivalent_supervisor(g, s, seed)
            assert serialize_automaton(generated) == serialize_automaton(reference)


def test_overlapping_covers_quotient_matches_oracle():
    """Overlapping covers, where several target cells can be valid: exact
    minimum covers, and heuristic covers padded with subcells (a subset of
    a valid cell is compatible and its targets fit where the cell's do)."""
    overlapping = 0
    for seed in range(200):
        g, s = loose_instance(random.Random(seed), max_plant=6, max_sup=7)
        _, report = reduce_exact_minimum(g, s, mode="cover")
        overlapping += not report.cover.is_partition
        _assert_same_quotient(s, control_data(g, s), report.cover)
    assert overlapping >= 4
    rng = random.Random(29)
    padded = 0
    for seed in range(30):
        g, s = scale_pair(random.Random(seed), core_states=8, factor=3)
        data = control_data(g, s)
        cells = list(reduce_heuristic(g, s)[1].cover.cells)
        for cell in list(cells):
            if rng.random() < 0.5:
                cells.append(rng.sample(sorted(cell), rng.randint(1, len(cell))))
        cover = Cover.from_cells(cells)
        assert validate_cover(s, data, cover)[0]
        padded += not cover.is_partition
        _assert_same_quotient(s, data, cover)
    assert padded >= 20


def test_cover_verdicts_match_oracle():
    """Random partitions, mostly invalid: the same first violation."""
    rng = random.Random(23)
    verdicts = set()
    for _ in range(150):
        g, s = loose_instance(rng, max_plant=6, max_sup=8)
        data = control_data(g, s)
        k = rng.randint(1, s.n)
        cells = [set() for _ in range(k)]
        for z in range(s.n):
            cells[rng.randrange(k)].add(z)
        cover = Cover.from_cells(cell for cell in cells if cell)
        got = validate_cover(s, data, cover)
        assert got == merge_oracle.validate_cover_by_scan(s, data, cover)
        verdicts.add(got[1][0] if got[1] else "valid")
    assert verdicts == {"valid", "pair", "event"}


def _derived_partitions(rng, s, cells):
    """Partitions of ``s`` derived from the cells of a valid partition:
    the partition itself, one cell split in two, two cells merged, and two
    cells merged whose states are pairwise compatible."""
    cells = [sorted(cell) for cell in cells]
    yield cells
    for _ in range(3):
        joint = [i for i, cell in enumerate(cells) if len(cell) > 1]
        if joint:
            i = rng.choice(joint)
            cut = rng.randint(1, len(cells[i]) - 1)
            members = rng.sample(cells[i], len(cells[i]))
            yield cells[:i] + cells[i + 1:] + [members[:cut], members[cut:]]
        if len(cells) > 1:
            i, j = rng.sample(range(len(cells)), 2)
            yield [cell for k, cell in enumerate(cells) if k not in (i, j)] + [cells[i] + cells[j]]


def _compatible_merges(s, data, cells, count):
    """Up to ``count`` partitions that merge two cells whose states are
    pairwise compatible: only an event can refuse them."""
    masks = data.incompatibility_masks()
    bits = [sum(1 << z for z in cell) for cell in cells]
    found = 0
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if found < count and not any(masks[z] & bits[j] for z in cells[i]):
                found += 1
                yield [cell for k, cell in enumerate(cells) if k not in (i, j)] + [
                    [*cells[i], *cells[j]]]


def _malformed(rng, s, cells):
    """Covers built from a valid partition that are no partition: a state
    in two cells, a state out of range, a missing state, an empty cell."""
    cells = [sorted(cell) for cell in cells]
    if len(cells) > 1:
        i, j = rng.sample(range(len(cells)), 2)
        yield Cover.from_cells(cells + [cells[i] + [rng.choice(cells[j])]])
    yield Cover.from_cells(cells[:-1] + [cells[-1] + [s.n + rng.randrange(3)]])
    i = rng.randrange(len(cells))
    yield Cover.from_cells(cells[:i] + [cells[i][1:]] + cells[i + 1:])
    yield Cover(Cover.from_cells(cells).cells + (frozenset(),))


def _refusal(build, s, data, cover):
    """The ``CoverError`` text ``build`` refuses ``cover`` with, or None."""
    try:
        build(s, data, cover, name="Q")
    except CoverError as exc:
        return str(exc)
    return None


def _outcome(s, data, cover):
    """Verdict, witness and quotient bytes against the scan oracles, and
    the refusal text against ``table_oracle``'s; names the outcome."""
    try:
        got = validate_cover(s, data, cover)
    except CoverError as exc:
        assert str(exc) == _refusal(induce_quotient, s, data, cover) == _refusal(
            table_oracle.induce_quotient, s, data, cover)
        return "structural"
    assert got == merge_oracle.validate_cover_by_scan(s, data, cover)
    if not got[0]:
        assert _refusal(induce_quotient, s, data, cover) == _refusal(
            table_oracle.induce_quotient, s, data, cover) == f"invalid control cover: {got[1]}"
        return got[1][0]
    quotient = induce_quotient(s, data, cover, name="Q")
    reference = merge_oracle.induce_quotient_by_scan(s, data, cover, "Q")
    assert serialize_automaton(quotient) == serialize_automaton(reference)
    return "joint" if any(len(cell) > 1 for cell in cover.cells) else "valid"


def test_bench_scale_partitions_match_oracle():
    """Partitions of 100-300 state random supervisors and of their SUPERs,
    derived from each heuristic cover by splitting and merging cells, and
    malformed covers built from it: the same verdict, witness, quotient
    bytes and refusal text as the scan and dict-table oracles."""
    rng = random.Random(43)
    outcomes = {}
    for _ in range(4):
        g, s = _random_pair(rng, min_states=100, max_states=300)
        for a in (s, build_super(g, s)):
            data = control_data(g, a)
            cells = reduce_heuristic(g, a)[1].cover.cells
            covers = [Cover.from_cells(c) for c in _derived_partitions(rng, a, cells)]
            covers += [Cover.from_cells(c) for c in _compatible_merges(a, data, cells, 2)]
            covers += _malformed(rng, a, cells)
            for cover in covers:
                kind = _outcome(a, data, cover)
                outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes["joint"] >= 8 and outcomes["structural"] >= 20
    assert outcomes["pair"] >= 10 and outcomes["event"] >= 10


# ---------------------------------------------------------------------------
# one-step masks against the plain-mask merger


def _plain_mask_sweep(g, s):
    """The oracle sweep seeded with the base incompatibility masks, as
    ``reduce_heuristic`` ran it before the one-step masks and before it
    closed them at its first refusal."""
    partition = _MergePartition(s, control_data(g, s).incompatibility_masks())
    merge_oracle.sweep(partition)
    return partition.cover(), partition.steps


def test_one_step_sweep_matches_plain_mask_sweep():
    """Every bit the one-step masks add is a pair no congruence may join,
    so the sweep refuses the same merges and returns the same cover."""
    instances = [scale_pair(random.Random(seed), core_states=8, factor=12) for seed in range(4)]
    instances += [loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5)
                  for seed in range(60)]
    rng = random.Random(31)
    instances += [_random_pair(rng) for _ in range(6)]
    fewer = 0
    for g, s in instances:
        expected, plain_steps = _plain_mask_sweep(g, s)
        _, report = reduce_heuristic(g, s)
        assert report.cover == expected
        assert report.steps <= plain_steps
        fewer += report.steps < plain_steps
    assert fewer >= 10


def test_one_step_masks_keep_shuffled_merge_outcomes():
    """The ``generate_equivalent_supervisor`` path: on shuffled, truncated
    pair orders over finest supervisors, every attempt commits or fails
    as it does on the base masks."""
    rng = random.Random(37)
    for _ in range(30):
        g, s = loose_instance(rng, max_plant=6, max_sup=6)
        sup = build_super(g, s)
        masks = control_data(g, sup).incompatibility_masks()
        plain = _MergePartition(sup, masks)
        one_step = _MergePartition(sup, successor_incompatibility(sup, masks))
        pairs = [(i, j) for i in range(sup.n) for j in range(i + 1, sup.n)]
        rng.shuffle(pairs)
        for i, j in pairs[: rng.randint(0, len(pairs))]:
            assert one_step.try_merge(i, j) == plain.try_merge(i, j)
        assert one_step.cover() == plain.cover()


def test_bench_random_instance_2_examines_few_unions():
    """Regression guard: on instance 2 of the ``reduce_random`` benchmark
    (251 states) the sweep on the base masks examines 19,042 unions, on
    the one-step masks 4,983, and 5 when it closes them at its first
    refused attempt."""
    g, s = partial_observation_pair(2)
    assert s.n == 251
    _, report = reduce_heuristic(g, s)
    assert report.steps <= 100
    assert report.cover == _plain_mask_sweep(g, s)[0]


# ---------------------------------------------------------------------------
# the chart closed at the first refusal against the oracles


def _one_step_partition(g, s):
    masks = control_data(g, s).incompatibility_masks()
    return _MergePartition(s, successor_incompatibility(s, masks))


def test_closed_chart_and_sweep_match_oracles():
    """On the 13 ``reduce_random`` supervisors, the 3 ``reduce_inflated``
    ones and 60 loose ones: the closed masks are the oracle's rounds run to
    a fixpoint, and the sweep that closes at its first refusal returns the
    oracle sweep's cover in no more unions."""
    instances = [partial_observation_pair(i) for i in range(13)]
    instances += [scale_pair(random.Random(i), 8, 25) for i in range(3)]
    instances += [loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5)
                  for seed in range(60)]
    fewer = 0
    for g, s in instances:
        masks = control_data(g, s).incompatibility_masks()
        assert closed_incompatibility(s, masks) == merge_oracle.closed_incompatibility(s, masks)
        closing, plain = _one_step_partition(g, s), _one_step_partition(g, s)
        closing.sweep()
        merge_oracle.sweep(plain)
        assert closing.cover() == plain.cover()
        assert closing.steps <= plain.steps
        fewer += closing.steps < plain.steps
    assert fewer >= 15


def _soundness_instances():
    instances = [scale_pair(random.Random(seed), core_states=8, factor=5) for seed in range(4)]
    instances += [loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5)
                  for seed in range(40)]
    return instances


def test_close_marks_only_pairs_a_merge_refuses():
    """After a random prefix of attempts, every cell pair :meth:`close`
    newly marks incompatible is refused by ``try_merge`` on a copy of the
    partition taken before the close."""
    rng = random.Random(41)
    marked = 0
    for g, s in _soundness_instances():
        partition = _one_step_partition(g, s)
        pairs = [(i, j) for i in range(s.n) for j in range(i + 1, s.n)]
        rng.shuffle(pairs)
        for i, j in pairs[: rng.randint(0, len(pairs) // 20)]:
            partition.try_merge(i, j)
        before = copy.deepcopy(partition)
        roots = sorted({partition.find(q) for q in range(s.n)})
        partition.close()
        assert partition.cover() == before.cover()
        for a in roots:
            for b in roots:
                if a >= b or partition.incompatible[a] & partition.members[b] == 0:
                    continue
                assert partition.incompatible[b] & partition.members[a]
                if before.incompatible[a] & before.members[b]:
                    continue
                scratch = copy.deepcopy(before)
                assert not scratch.try_merge(a, b)
                marked += 1
    assert marked >= 100


def test_sweep_closes_once_at_its_first_refusal():
    """``close`` runs once in a sweep that refuses an attempt, right after
    the first refusal, and never in a sweep that refuses none."""
    kinds = set()
    for g, s in _soundness_instances():
        partition = _one_step_partition(g, s)
        events = []
        try_merge, close = partition.try_merge, partition.close

        def counted_try_merge(i, j):
            committed = try_merge(i, j)
            events.append("commit" if committed else "refuse")
            return committed

        def counted_close():
            events.append("close")
            close()

        partition.try_merge, partition.close = counted_try_merge, counted_close
        partition.sweep()
        if "refuse" in events:
            first = events.index("refuse")
            assert events.count("close") == 1 and events[first + 1] == "close"
        else:
            assert "close" not in events
        kinds.add("refuse" in events)
    assert kinds == {True, False}
