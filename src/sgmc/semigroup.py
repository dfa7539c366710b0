"""Finite transformation semigroups with an adjoined identity (and zero).

Elements are total maps on a state set, stored as tuples of image indices.
The composition convention is fixed once and for all:

    (s * t)(w) = s(t(w))        -- the RIGHT factor acts first.

This is the unique convention consistent with reading the two-state worked
chain off its right Cayley graph (the word 31 must multiply to the constant
map onto the second state).  A fresh identity is always adjoined as element
id 0, distinct from any generated identity map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded

Transformation = tuple  # tuple[int, ...]: images of 0..n-1

DEFAULT_MAX_ELEMENTS = 10**5

IDENTITY_NAME = "\U0001d7d9"  # the symbol used for the adjoined identity
BOX_LABEL = "□"  # the default label of the adjoined zero


def compose(s: Transformation, t: Transformation) -> Transformation:
    """(s*t)(w) = s(t(w)); right factor acts first."""
    return tuple(s[i] for i in t)


def _require_prefix_code(labels):
    """Reject labels of which one is a prefix of another.

    Words are named by concatenating their labels, so the names of distinct
    words differ only if no label is a prefix of another (a prefix code).
    In sorted order a label that is a prefix of some label is a prefix of
    the next one.  The identity's name is refused too: it names only the
    empty word.
    """
    if IDENTITY_NAME in labels:
        raise ValueError(
            f"label {IDENTITY_NAME!r} is reserved for the adjoined identity"
        )
    ordered = sorted(labels)
    for shorter, longer in zip(ordered, ordered[1:]):
        if longer.startswith(shorter):
            raise ValueError(
                f"generator label {shorter!r} is a prefix of {longer!r}; "
                "labels must form a prefix code"
            )


@dataclass(frozen=True)
class IdealInfo:
    members: frozenset  # element ids
    is_left_zero: bool


class FiniteSemigroup:
    """Closure of a set of labelled transformations, plus the fresh identity.

    Element ids are assigned in BFS order over words in length-lex order
    (labels taken in input order), so the numbering is deterministic.  Each
    element keeps the first word that produced it; those witness words name
    graph vertices and report keys.
    """

    def __init__(self):
        self.labels = []          # generator labels, input order
        self.gens = {}            # label -> element id
        self.transform = [None]   # element id -> Transformation (None: abstract)
        self.words = [()]         # element id -> first witness word
        self.identity_id = 0
        self.zero_id = None
        self.zero_label = None
        self._index = {}          # Transformation -> element id
        self._ideal = None

    # -- construction -----------------------------------------------------

    @classmethod
    def generate(cls, generators, max_elements: int = DEFAULT_MAX_ELEMENTS):
        """Close labelled transformations under composition.

        generators: iterable of (label, images) with all images on one state
        set.  Raises CapExceeded if the closure grows past max_elements.
        """
        gens = [(str(label), tuple(images)) for label, images in generators]
        if not gens:
            raise ValueError("at least one generator is required")
        n = len(gens[0][1])
        if n < 1:
            raise ValueError("state set must be nonempty")
        s = cls()
        queue = []
        for label, images in gens:
            if len(images) != n or any(not 0 <= i < n for i in images):
                raise ValueError(f"generator {label!r} is not a map on {n} states")
            if label in s.gens:
                raise ValueError(f"duplicate generator label {label!r}")
            s.labels.append(label)
            eid = s._index.get(images)
            if eid is None:
                eid = s._add(images, (label,), max_elements)
                queue.append(eid)
            s.gens[label] = eid
        _require_prefix_code(s.labels)
        gen_images = [s.transform[s.gens[a]] for a in s.labels]
        head = 0
        while head < len(queue):
            eid = queue[head]
            head += 1
            base = s.transform[eid]
            word = s.words[eid]
            for label, gimg in zip(s.labels, gen_images):
                product = compose(base, gimg)
                if product not in s._index:
                    new_id = s._add(product, word + (label,), max_elements)
                    queue.append(new_id)
        return s

    def _add(self, images, word, max_elements):
        if len(self.transform) > max_elements:
            raise CapExceeded(
                f"semigroup exceeds {max_elements} elements; raise the cap"
            )
        eid = len(self.transform)
        self.transform.append(images)
        self.words.append(word)
        self._index[images] = eid
        return eid

    def adjoin_zero(self, label: str = BOX_LABEL) -> "FiniteSemigroup":
        """Return a new semigroup with an absorbing zero adjoined as a generator."""
        if label in self.gens:
            raise ValueError(f"zero label {label!r} collides with a generator")
        if self.zero_id is not None:
            raise ValueError("zero already adjoined")
        _require_prefix_code(self.labels + [label])
        s = FiniteSemigroup()
        s.labels = self.labels + [label]
        s.transform = list(self.transform) + [None]
        s.words = list(self.words) + [(label,)]
        s._index = dict(self._index)
        s.zero_id = len(self.transform)
        s.zero_label = label
        s.gens = dict(self.gens)
        s.gens[label] = s.zero_id
        return s

    # -- structure ---------------------------------------------------------

    def element_ids(self):
        """All ids: identity first, generated elements, then the zero if any."""
        return range(len(self.transform))

    def size(self) -> int:
        """|S|, excluding the adjoined identity."""
        return len(self.transform) - 1

    def name(self, eid: int) -> str:
        if eid == self.identity_id:
            return IDENTITY_NAME
        return "".join(self.words[eid])

    def mul(self, i: int, j: int) -> int:
        if i == self.identity_id:
            return j
        if j == self.identity_id:
            return i
        z = self.zero_id
        if z is not None and (i == z or j == z):
            return z
        return self._index[compose(self.transform[i], self.transform[j])]

    def minimal_ideal(self) -> IdealInfo:
        """The unique minimal two-sided ideal K(S), with its left-zero flag.

        In a transformation semigroup K(S) is exactly the set of elements of
        minimal rank (image size) r.  Rank never grows under multiplication,
        so every element of K(S) = S^1 s S^1, for s of rank r, has rank r.
        Conversely, take s of rank r and k in K(S): e = (sk)^omega lies in
        K(S) and is idempotent, and image(e) is contained in image(s) with the
        same size r, so the two images are equal.  An idempotent fixes its
        image pointwise, hence e*s = s, and s lies in K(S).

        K(S) is left zero exactly when, for one fixed e in K(S), x*e = x and
        e*x = e for every x in K(S): 2|K| products, as then x*y = (x*e)*y =
        x*(e*y) = x*e = x for all x, y in K(S).
        """
        if self._ideal is not None:
            return self._ideal
        if self.size() == 0:
            raise ValueError("semigroup has no elements besides the identity")
        if self.zero_id is not None:
            self._ideal = IdealInfo(frozenset({self.zero_id}), True)
            return self._ideal
        rank = [len(set(images)) for images in self.transform[1:]]
        low = min(rank)
        members = frozenset(eid for eid, r in enumerate(rank, 1) if r == low)
        e = min(members)
        left_zero = all(
            self.mul(x, e) == x and self.mul(e, x) == e for x in members
        )
        self._ideal = IdealInfo(members, left_zero)
        return self._ideal
