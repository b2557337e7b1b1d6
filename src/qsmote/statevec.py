"""The probability a sampled swap test draws its counts from.

`qdist.angular_distance_table` evaluates the swap-test marginals in
closed form. The statevector simulator that checks them is a test
oracle and lives in `tests/oracles.py`; its sampled measurement rounds
its marginal with this same function, so both draw the same counts.
"""

import numpy as np


def sampling_probability(p):
    """p rounded to a multiple of 2**-32, the probability a sampled run draws from.

    numpy's binomial sampler jumps at p = 0.5 and wherever (shots + 1) * p
    is an integer, so two computations of one marginal that differ in the
    last few bits (the simulator and a closed form) can draw different
    counts from the same generator. Rounding both to 2**-32 makes them
    draw the same count, exactly so at 0, 0.5 and 1; it moves p by at most
    2**-33, far below the sampling error of any shot count.
    """
    return np.ldexp(np.rint(np.ldexp(p, 32)), -32)
