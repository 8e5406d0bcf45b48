"""The fixed pure-Python reference loop used for drift control.

It imports nothing, so a fresh interpreter can time it before importing
anything else.  Its work never changes: the benchmark divides every timing by
a nearby sample of this loop, which cancels machine-speed drift on a shared
VM while leaving changes to the library's own speed in the numbers.

On a noisy 2-core VM no single kind of loop tracked the library's slowdowns
best every time, so one sample mixes three: integer arithmetic, small tuple
and dict allocation, and a unit-pivot elimination like the ``zps`` kernels.
"""


def _arith(iters: int) -> int:
    acc = 1
    for i in range(iters):
        acc = (acc * 31 + i) % 1000003
    return acc


def _alloc(iters: int) -> int:
    seen = {}
    for i in range(iters):
        t = (i, i * 7 % 13, (i * i) % 101)
        seen[t] = [x % 5 for x in t]
    return len(seen)


def _eliminate(iters: int) -> int:
    acc = 0
    for s in range(iters):
        rows = [[(s * 7 + i * 5 + j * 3) % 9 for j in range(5)] for i in range(3)]
        r = 0
        for col in range(5):
            piv = next((i for i in range(r, 3) if rows[i][col] % 3), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][col], -1, 9)
            rows[r] = [x * inv % 9 for x in rows[r]]
            for i in range(3):
                if i != r and rows[i][col]:
                    f = rows[i][col]
                    rows[i] = [(x - f * y) % 9 for x, y in zip(rows[i], rows[r])]
            r += 1
        acc += sum(map(sum, rows))
    return acc


def ref_loop() -> int:
    return _arith(48_000) + _alloc(5_500) + _eliminate(135)
