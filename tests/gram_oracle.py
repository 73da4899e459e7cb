"""The coefficient-correlation Gram kernel, kept as an oracle for
`cyclotomic.gram` and `gram_diagonal`.

It forms every product of coefficients a[i, c, s] * b[j, c, t] with one
integer matmul over the classes, sums the products of each x^(s - t), and
folds those sums onto the power basis with rows of the power table.  It
shares only `_power_array` and the dtype rule with the kernel under test, and
it picks its dtype by the same bound, so values and dtypes must agree.
"""

from functools import lru_cache

import numpy as np

from charcond.cyclotomic import _absmax, _power_array, int_dtype

# at most this many coefficient products in one block
_BLOCK = 1 << 15


@lru_cache(maxsize=None)
def _correlation_data(e: int, w: int):
    """The order that sorts the w*w pairs (s, t) by m = (s - t) mod e, the
    start of each run of equal m, and the power-table rows of those m."""
    s, t = np.divmod(np.arange(w * w), w)
    m = (s - t) % e
    order = np.argsort(m, kind="stable")
    ms, starts = np.unique(m[order], return_index=True)
    return order, starts, _power_array(e)[ms]


def oracle_gram(a, b, weights, e=None):
    """Power-basis numerators of sum_c w_c * a[i, c] * conj(b[j, c])."""
    ka, k, w = a.shape
    kb = b.shape[0]
    e = w if e is None else e
    wts = [int(x) for x in weights]
    order, starts, table = _correlation_data(e, w)
    bound = (max(1, sum(abs(x) for x in wts)) * w * _absmax(a) * _absmax(b)
             * e * _absmax(table))
    dtype = int_dtype(bound)
    aw = (a.astype(dtype, copy=False) * np.array(wts, dtype=dtype)[:, None]
          ).transpose(0, 2, 1)[:, None]
    bb = b.astype(dtype, copy=False)[None]
    table = table.astype(dtype, copy=False)
    out = np.zeros((ka, kb, table.shape[1]), dtype=dtype)
    if not kb:
        return out
    step = max(1, _BLOCK // (kb * w * w))
    for lo in range(0, ka, step):
        prods = (aw[lo:lo + step] @ bb).reshape(-1, kb, w * w)
        out[lo:lo + step] = np.add.reduceat(prods[..., order], starts,
                                            axis=2) @ table
    return out


def oracle_diagonal(a, weights, e=None):
    """The diagonal of the full oracle Gram of a with itself."""
    got = oracle_gram(a, a, weights, e)
    i = np.arange(len(a))
    return got[i, i]

