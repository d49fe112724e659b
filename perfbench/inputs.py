"""Seeded benchmark inputs, emitted as k3lat dataset text.

The seed chooses every unimodular change of basis but Leech's, the order
of the query stream and the obar generating sets.  The same seed gives byte-identical
text; another seed gives other text whose oracle answers are the same.
Everything here is plain integer arithmetic on the dataset's own fields,
so the inputs do not depend on the code under test: the program only ever
parses the text.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

# groups whose coinvariant discriminant has at most two generators, less S6:
# in exact mode S6 alone takes about 20 s, which the run budget cannot carry
EXACT_GROUPS = ("L2(11)", "L3(4)", "A7", "M10", "(3xA5):2", "3^2:QD16")
OBAR_GENERATORS = 4  # a fixed count keeps the closure cost seed-independent
ROW_ADDITIONS = 6
# On the rank-3 fixture Grams six additions leave some bases close to the
# given one, whose queries run cheap: a query's cost then swings with the
# seed (per-query spread 19 % over seeds).  Twelve put every basis far from
# it, at a steadier cost (spread 4 %).
FIXTURE_ROW_ADDITIONS = 12
# every lattice query but Leech is asked COPIES times, each time in its own
# basis, so that the seed-dependent cost of single queries averages out
COPIES = 2

E8_GRAM = ((2, -1, 0, 0, 0, 0, 0, 0), (-1, 2, -1, 0, 0, 0, 0, 0),
           (0, -1, 2, -1, 0, 0, 0, -1), (0, 0, -1, 2, -1, 0, 0, 0),
           (0, 0, 0, -1, 2, -1, 0, 0), (0, 0, 0, 0, -1, 2, -1, 0),
           (0, 0, 0, 0, 0, -1, 2, 0), (0, 0, -1, 0, 0, 0, 0, 2))
HILB2_DEGREES = (2,) + tuple(range(4, 201, 8))
HILB2_L_BOUND = 3  # degree 2 needs an explicit cap on |l|


# ------------------------------------------------------------ dataset text

@dataclass(frozen=True)
class Block:
    kind: str  # "group" or "lattice"
    name: str
    lines: tuple[str, ...]  # every line of the block, "end" included

    @property
    def grams(self) -> list[tuple[tuple[int, ...], ...]]:
        out = []
        for i, line in enumerate(self.lines):
            if line.startswith("gram "):
                n = int(line.split()[1])
                out.append(tuple(tuple(int(x) for x in row.split())
                                 for row in self.lines[i + 1:i + 1 + n]))
        return out

    def field(self, key: str) -> list[str]:
        """Tokens of every line starting with key, flattened."""
        return [tok for line in self.lines if line.split()[0] == key
                for tok in line.split()[1:]]


def split_blocks(text: str) -> list[Block]:
    blocks = []
    for chunk in text.split("\n\n")[1:]:
        lines = tuple(chunk.strip("\n").split("\n"))
        kind, name = lines[0].split()
        blocks.append(Block(kind, name, lines))
    return blocks


def lattice_block(name: str, gram) -> str:
    rows = "\n".join(" ".join(str(x) for x in row) for row in gram)
    return f"lattice {name}\ngram {len(gram)}\n{rows}\nend"


def dataset_text(blocks: list[str]) -> str:
    return "format 1\n\n" + "\n\n".join(blocks) + "\n"


# --------------------------------------------------------------- matrices

def conjugate(u, g):
    """U G U^T."""
    n = len(g)
    ug = [[sum(u[i][k] * g[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return tuple(tuple(sum(ug[i][k] * u[j][k] for k in range(n))
                       for j in range(n)) for i in range(n))


def unimodular(n: int, rng: random.Random, additions: int = ROW_ADDITIONS):
    """Random row additions, then a random signed permutation.

    More additions make the cost of a Leech query swing widely with the
    seed (LLL lands on bases of very different quality); six keep every
    basis far from the given one at a steadier cost."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(additions):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[s * x for x in row] for s, row in zip(signs, u)]


def direct_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    at = 0
    for g in grams:
        for i, row in enumerate(g):
            out[at + i][at:at + len(g)] = list(row)
        at += len(g)
    return tuple(tuple(r) for r in out)


def k3_gram():
    """U^3 + E8(-1)^2, the rank-22 K3 lattice."""
    hyp = ((0, 1), (1, 0))
    e8m = tuple(tuple(-x for x in row) for row in E8_GRAM)
    return direct_sum(hyp, hyp, hyp, e8m, e8m)


def k3_square_gram():
    """The rank-23 lattice K3 + <-2>."""
    return direct_sum(k3_gram(), ((-2,),))


# ---------------------------------------------- orthogonal group of a form

class FiniteForm:
    """A finite quadratic module from dataset fields (disc, q, b lines)."""

    def __init__(self, block: Block):
        self.orders = tuple(int(t) for t in block.field("disc"))
        r = len(self.orders)
        self.q = [Fraction(t) for t in block.field("q")]
        self.b = [[Fraction(0)] * r for _ in range(r)]
        toks = block.field("b")
        for k in range(0, len(toks), 3):
            i, j, v = int(toks[k]), int(toks[k + 1]), Fraction(toks[k + 2])
            self.b[i][j] = self.b[j][i] = v
        for i in range(r):
            self.b[i][i] = self.q[i] % 1
        self.elements = list(itertools.product(*map(range, self.orders)))

    def qval(self, x) -> Fraction:
        r = len(x)
        total = sum(x[i] * x[i] * self.q[i] for i in range(r))
        total += sum(2 * x[i] * x[j] * self.b[i][j]
                     for i in range(r) for j in range(i + 1, r))
        return total % 2

    def bval(self, x, y) -> Fraction:
        return sum(x[i] * y[j] * self.b[i][j] for i in range(len(x))
                   for j in range(len(y))) % 1

    def apply(self, images, x):
        return tuple(sum(c * im[k] for c, im in zip(x, images)) % d
                     for k, d in enumerate(self.orders))

    def automorphisms(self) -> list[tuple]:
        """Every form-preserving automorphism, as its generator images."""
        r = len(self.orders)
        cands = [[y for y in self.elements
                  if not any(self.orders[i] * c % d
                             for c, d in zip(y, self.orders))
                  and self.qval(y) == self.q[i]] for i in range(r)]
        out = []
        for images in itertools.product(*cands):
            if any(self.bval(images[i], images[j]) != self.b[i][j]
                   for i in range(r) for j in range(i + 1, r)):
                continue
            if len({self.apply(images, x) for x in self.elements}) \
                    == len(self.elements):
                out.append(images)
        return out

    def closure(self, gens) -> set:
        r = len(self.orders)
        ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for f in frontier:
                for g in gens:
                    h = tuple(self.apply(g, im) for im in f)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return seen


def obar_lines(block: Block, rng: random.Random) -> list[str]:
    """OBAR_GENERATORS random elements that generate the full O(D_M)."""
    form = FiniteForm(block)
    group = sorted(form.automorphisms())
    while True:
        gens = rng.sample(group, OBAR_GENERATORS)
        if len(form.closure(gens)) == len(group):
            break
    return ["obar " + " ".join(",".join(str(c) for c in im) for im in g)
            for g in gens]


def table_exact_text(builtin_text: str, seed: int) -> str:
    """The EXACT_GROUPS blocks, each with a seeded obar generating O(D_M)."""
    rng = random.Random(f"table-exact/{seed}")
    by_name = {b.name: b for b in split_blocks(builtin_text)}
    out = []
    for name in EXACT_GROUPS:
        block = by_name[name]
        lines = list(block.lines[:-1]) + obar_lines(block, rng) + ["end"]
        out.append("\n".join(lines))
    return dataset_text(out)


# ----------------------------------------------------------- query stream

@dataclass(frozen=True)
class Query:
    kind: str
    key: str  # names the question; its oracle answer is seed-independent
    lattices: tuple[str, ...] = ()  # lattice block names in the query text
    arg: int = 0  # norm for shortvec, degree for hilb2
    group: str = ""  # glue-check: whose coinvariant disc form to use


def query_stream(builtin_text: str, seed: int) -> tuple[str, list[Query]]:
    """(dataset text, queries): every query lattice rebased by its own
    unimodular U, seeded except for Leech's, the stream in seeded order.
    Keys repeat across copies; their answers are the same."""
    rng = random.Random(f"lattice-queries/{seed}")
    blocks = split_blocks(builtin_text)
    groups = [b for b in blocks if b.kind == "group"]
    leech = next(b for b in blocks if b.name == "Leech").grams[0]
    fixtures = [(f"{b.name}#{i}", g, b)
                for b in groups for i, g in enumerate(b.grams)]
    lattices: list[str] = []
    queries: list[Query] = []

    def rebased(gram) -> str:
        name = f"q{len(lattices)}"
        additions = FIXTURE_ROW_ADDITIONS if len(gram) == 3 else ROW_ADDITIONS
        lattices.append(lattice_block(
            name, conjugate(unimodular(len(gram), rng, additions), gram)))
        return name

    def plain(gram) -> str:
        name = f"q{len(lattices)}"
        lattices.append(lattice_block(name, gram))
        return name

    # The Leech query costs anywhere from 4 to 9 s depending on the basis it
    # arrives in, so its basis is fixed rather than drawn from the seed: a
    # seeded one would swing wall_s between seeds by more than any bound.
    leech_u = unimodular(len(leech), random.Random("Leech basis"))
    queries.append(Query("shortvec", "shortvec:Leech",
                         (plain(conjugate(leech_u, leech)),), 2))
    e8e8 = direct_sum(E8_GRAM, E8_GRAM)
    for _ in range(COPIES):
        queries.append(Query("shortvec", "shortvec:E8+E8",
                             (rebased(e8e8),), 2))
        for name, gram in (("K3", k3_gram()), ("K3sq", k3_square_gram())):
            queries.append(Query("disc", f"disc:{name}", (rebased(gram),)))
        for key, gram, block in fixtures:
            norm = max(gram[i][i] for i in range(3))
            queries.append(Query("shortvec", f"shortvec:{key}",
                                 (rebased(gram),), norm))
            for kind in ("autgroup", "good-isos", "disc", "partner"):
                queries.append(Query(kind, f"{kind}:{key}",
                                     (rebased(gram),)))
            queries.append(Query("isometric", f"isometric:{key}",
                                 (plain(gram), rebased(gram))))
            if block.field("disc"):
                queries.append(Query("glue-check", f"glue-check:{key}",
                                     (rebased(gram),), group=block.name))
        for (k1, g1, _), (k2, g2, _) in itertools.combinations(fixtures, 2):
            if det3(g1) == det3(g2):
                queries.append(Query("isometric", f"isometric:{k1}|{k2}",
                                     (rebased(g1), rebased(g2))))
    for h in HILB2_DEGREES:
        queries.append(Query("hilb2", f"hilb2:{h}", (), h))
    rng.shuffle(queries)
    group_text = ["\n".join(b.lines) for b in groups]
    return dataset_text(group_text + lattices), queries


def det3(g) -> int:
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))
