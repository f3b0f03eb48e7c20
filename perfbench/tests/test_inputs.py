import numpy as np

import inputs


def test_csv_is_byte_identical_for_a_seed():
    first = inputs.income_csv(7, rows=5000)
    second = inputs.income_csv(7, rows=5000)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1]) and first[2] == second[2]
    assert inputs.income_csv(8, rows=5000)[0] != first[0]


def test_csv_incomes_are_the_parsed_cells():
    text, incomes, blanks = inputs.income_csv(3, rows=20000)
    cells = [line.split(",")[1] for line in text.splitlines()[1:]]
    parsed = np.array([float(c) for c in cells if c])
    assert np.array_equal(parsed, incomes)
    assert blanks == sum(not c for c in cells) > 0
    assert text.startswith("id,income\n0,")


def test_groups_are_identical_for_a_seed_and_mostly_distinct():
    first, second = inputs.group_arrays(11), inputs.group_arrays(11)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    sizes = [a.size for a in first]
    low, high = inputs.GROUP_SIZE_RANGE
    assert len(first) == inputs.GROUPS and low <= min(sizes) and max(sizes) <= high
    assert len(set(sizes)) > 0.75 * len(sizes)
    values, offsets = inputs.pack_groups(first)
    assert np.array_equal(values[offsets[5]:offsets[6]], first[5])


def test_theory_tasks_are_a_seeded_order_of_a_fixed_set():
    assert inputs.theory_tasks(2) == inputs.theory_tasks(2)
    assert inputs.theory_tasks(2) != inputs.theory_tasks(3)
    assert sorted(map(repr, inputs.theory_tasks(2))) == sorted(map(repr, inputs.theory_tasks(3)))
    assert len(inputs.theory_tasks(2)) == 6 * 11 + 5 * 3
