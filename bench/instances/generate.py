#!/usr/bin/env python3
"""Regenerates the three large known-answer instances in this directory.

Deterministic (no randomness): running it twice produces identical files.

All three instances share one structural idea: a small semantic core whose
answer is known by construction, with every internal wire routed through a
chain of definitional buffer variables (v <-> w pairs).  That is the shape
of unoptimized Tseitin output -- netlists full of single-fanout
definitions -- and it is exactly what the SatELite-style pass removes:
each buffer has two occurrences per polarity, so bounded variable
elimination collapses whole chains back to the core.  Without the pass,
every implication crawls the full chain and the solver pays to load and
search the bloated clause database; with it, the search runs on the
shrunken formula.

  php_soft8.wcnf      soft pigeonhole PHP(8,7), optimum 1
  php_weighted8.wcnf  same core with non-unit weights, optimum 1
  adder_miter8.cnf    miter of two 8-bit adders, UNSAT
"""

import os

HERE = os.path.dirname(os.path.abspath(__file__))

# Buffer-chain length per wire. Long enough that elimination pays for
# itself on the bench wall clock, short enough that the no-preprocess
# differential runs stay fast in CI.
PHP_BUFFERS = 10
MITER_BUFFERS = 10


class Cnf:
    def __init__(self):
        self.num_vars = 0
        self.clauses = []

    def var(self):
        self.num_vars += 1
        return self.num_vars

    def add(self, *lits):
        self.clauses.append(list(lits))


def buffered(cnf, src, length):
    """Routes `src` through `length` buffer equivalences; returns the far
    end."""
    cur = src
    for _ in range(length):
        nxt = cnf.var()
        cnf.add(-cur, nxt)
        cnf.add(cur, -nxt)
        cur = nxt
    return cur


def soft_pigeonhole(pigeons, holes, weights):
    """x[i][j] = pigeon i sits in hole j. "Every pigeon is placed" is a
    soft clause (over the raw x, which the MaxSAT session freezes); "no
    two pigeons share a hole" is hard, phrased over the buffered copies of
    the x (which elimination collapses). One more pigeon than holes, so
    the optimum leaves exactly one pigeon out: the cheapest soft weight.
    Proving that optimal demands a full PHP(pigeons-1 placed) refutation
    -- real search, not propagation."""
    cnf = Cnf()
    x = [[cnf.var() for _ in range(holes)] for _ in range(pigeons)]
    xb = [[buffered(cnf, x[i][j], PHP_BUFFERS) for j in range(holes)]
          for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                cnf.add(-xb[i1][j], -xb[i2][j])
    soft = [(weights[i], list(x[i])) for i in range(pigeons)]
    return cnf, soft


def write_wcnf(path, comment_lines, cnf, soft):
    top = sum(w for w, _ in soft) + 1
    with open(path, "w") as f:
        for line in comment_lines:
            f.write("c " + line + "\n")
        f.write("p wcnf %d %d %d\n" % (cnf.num_vars,
                                       len(cnf.clauses) + len(soft), top))
        for cl in cnf.clauses:
            f.write("%d %s 0\n" % (top, " ".join(map(str, cl))))
        for w, cl in soft:
            f.write("%d %s 0\n" % (w, " ".join(map(str, cl))))


def write_cnf(path, comment_lines, cnf):
    with open(path, "w") as f:
        for line in comment_lines:
            f.write("c " + line + "\n")
        f.write("p cnf %d %d\n" % (cnf.num_vars, len(cnf.clauses)))
        for cl in cnf.clauses:
            f.write("%s 0\n" % " ".join(map(str, cl)))


def gate_xor(cnf, x, y):
    z = cnf.var()
    cnf.add(-x, -y, -z)
    cnf.add(x, y, -z)
    cnf.add(x, -y, z)
    cnf.add(-x, y, z)
    return z


def gate_and(cnf, x, y):
    z = cnf.var()
    cnf.add(-z, x)
    cnf.add(-z, y)
    cnf.add(z, -x, -y)
    return z


def gate_or(cnf, x, y):
    z = cnf.var()
    cnf.add(z, -x)
    cnf.add(z, -y)
    cnf.add(-z, x, y)
    return z


def gate_maj(cnf, x, y, c):
    z = cnf.var()
    cnf.add(-z, x, y)
    cnf.add(-z, x, c)
    cnf.add(-z, y, c)
    cnf.add(z, -x, -y)
    cnf.add(z, -x, -c)
    cnf.add(z, -y, -c)
    return z


def adder_miter(bits):
    """Two structurally different ripple adders over shared inputs: adder A
    computes the carry as ab | c(a^b), adder B as maj(a,b,c). The sum bits
    are pin-equal, so asserting some bit differs is UNSAT. Every gate
    output is buffered before its consumers see it."""
    cnf = Cnf()
    a = [cnf.var() for _ in range(bits)]
    b = [cnf.var() for _ in range(bits)]

    def buf(v):
        return buffered(cnf, v, MITER_BUFFERS)

    # Adder A: s = (a ^ b) ^ c, carry = ab | c(a ^ b).
    sums_a = []
    carry = None  # c_0 = 0 folded into the first bit's gates
    for i in range(bits):
        t = buf(gate_xor(cnf, a[i], b[i]))
        if carry is None:
            sums_a.append(t)
            carry = buf(gate_and(cnf, a[i], b[i]))
        else:
            sums_a.append(buf(gate_xor(cnf, t, carry)))
            g = buf(gate_and(cnf, a[i], b[i]))
            p = buf(gate_and(cnf, carry, t))
            carry = buf(gate_or(cnf, g, p))

    # Adder B: s = a ^ (b ^ c), carry = maj(a, b, c).
    sums_b = []
    carry = None
    for i in range(bits):
        if carry is None:
            sums_b.append(buf(gate_xor(cnf, a[i], b[i])))
            carry = buf(gate_and(cnf, b[i], a[i]))
        else:
            u = buf(gate_xor(cnf, b[i], carry))
            sums_b.append(buf(gate_xor(cnf, a[i], u)))
            carry = buf(gate_maj(cnf, a[i], b[i], carry))

    # Miter: some sum bit differs.
    diff = None
    for i in range(bits):
        d = buf(gate_xor(cnf, sums_a[i], sums_b[i]))
        diff = d if diff is None else buf(gate_or(cnf, diff, d))
    cnf.add(diff)
    return cnf


def main():
    pigeons, holes = 8, 7
    cnf, soft = soft_pigeonhole(pigeons, holes, [1] * pigeons)
    write_wcnf(
        os.path.join(HERE, "php_soft8.wcnf"),
        ["soft pigeonhole PHP(8,7): placing each pigeon is a soft unit-",
         "weight clause, the hole-exclusion clauses are hard and phrased",
         "over copies of the pigeon variables routed through %d"
         % PHP_BUFFERS,
         "definitional buffers each (the unoptimized-Tseitin shape",
         "bounded variable elimination collapses). One pigeon too many,",
         "so the optimum leaves exactly one out. Known optimum: 1.",
         "Regenerate with generate.py."],
        cnf, soft)

    weights = [1 if i % 3 == 0 else (i % 3) + 1 for i in range(pigeons)]
    cnf, soft = soft_pigeonhole(pigeons, holes, weights)
    write_wcnf(
        os.path.join(HERE, "php_weighted8.wcnf"),
        ["the soft pigeonhole of php_soft8.wcnf with pigeon weights",
         "cycling 1,2,3: the optimum leaves out one of the weight-1",
         "pigeons. Known optimum: 1 (exercises weighted core",
         "splitting). Regenerate with generate.py."],
        cnf, soft)

    write_cnf(
        os.path.join(HERE, "adder_miter8.cnf"),
        ["miter of two structurally different 8-bit adders over shared",
         "inputs (carry as ab | c(a^b) vs maj(a,b,c)), every gate output",
         "routed through %d definitional buffer variables. The sum bits"
         % MITER_BUFFERS,
         "agree, so asserting a difference is UNSAT.",
         "Regenerate with generate.py."],
        adder_miter(8))


if __name__ == "__main__":
    main()
