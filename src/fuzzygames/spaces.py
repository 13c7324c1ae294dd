"""Finite spaces of named points and bitmask subset encoding."""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _iterproduct

from ._frozen import Value

# General (table-backed) capacities materialize all 2^n subset values, so the
# space size is capped.  Density-backed capacities carry no such limit.
GENERAL_TABLE_MAX_ELEMENTS = 20


class FiniteSpace(Value):
    """An ordered finite set of distinct labels.

    Subsets are encoded as bitmasks over the label order: bit k of a mask
    stands for ``labels[k]``.  Instances are immutable and hashable; two
    spaces are equal when their label tuples are equal.
    """

    __slots__ = ("labels", "full_mask", "_index")
    _fields = ("labels",)

    def __init__(self, labels):
        labels = tuple(labels)
        if not labels:
            raise ValueError("a space needs at least one element")
        if len(set(labels)) != len(labels):
            raise ValueError("space labels must be distinct")
        for name in labels:
            if not isinstance(name, str) or not name:
                raise ValueError(f"bad label {name!r}: labels are nonempty strings")
            if "," in name:
                # commas delimit subset keys in the file formats
                raise ValueError(f"bad label {name!r}: commas are reserved")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "full_mask", (1 << len(labels)) - 1)
        object.__setattr__(self, "_index", {name: k for k, name in enumerate(labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"label {label!r} is not a point of {self}") from None

    def mask_of(self, labels) -> int:
        """Bitmask of the subset given by an iterable of labels."""
        mask = 0
        for name in labels:
            mask |= 1 << self.index(name)
        return mask

    def members(self, mask: int) -> tuple[str, ...]:
        """Labels of the subset encoded by mask, in space order."""
        if mask < 0 or mask > self.full_mask:
            raise ValueError(f"mask {mask} is out of range for {self}")
        return tuple(name for k, name in enumerate(self.labels) if mask >> k & 1)

    def subsets(self) -> range:
        """All subset masks, empty set first, whole space last."""
        return range(1 << len(self.labels))


class ProductSpace(Value):
    """Cartesian product of finite spaces, flattened row-major.

    The flat index of coordinates (i1, ..., ik) is (((i1 * n2) + i2) * n3 + i3)
    and so on: the last factor varies fastest.  Flat labels join the coordinate
    labels with "|".  A one-factor product is the factor itself.
    """

    __slots__ = ("factors", "space", "_strides")
    _fields = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a product needs at least one factor")
        for f in factors:
            if not isinstance(f, FiniteSpace):
                raise ValueError("product factors must be FiniteSpace instances")
        object.__setattr__(self, "factors", factors)
        strides = [1] * len(factors)
        for k in range(len(factors) - 2, -1, -1):
            strides[k] = strides[k + 1] * factors[k + 1].size
        object.__setattr__(self, "_strides", tuple(strides))
        if len(factors) == 1:
            flat = factors[0]
        else:
            labels = [
                "|".join(combo)
                for combo in _iterproduct(*(f.labels for f in factors))
            ]
            try:
                flat = FiniteSpace(labels)
            except ValueError:
                # factor labels are valid, so only a repeated joined label fails
                clash = next(x for k, x in enumerate(labels) if x in labels[:k])
                raise ValueError(
                    f"product label {clash!r} arises from two coordinate "
                    "tuples: '|' joins coordinate labels, so labels containing "
                    "'|' can collide"
                ) from None
        object.__setattr__(self, "space", flat)

    @property
    def size(self) -> int:
        return self.space.size

    def index_of(self, coords) -> int:
        """Flat index of a tuple of per-factor indices."""
        coords = tuple(coords)
        if len(coords) != len(self.factors):
            raise ValueError("coordinate count does not match factor count")
        flat = 0
        for c, f, s in zip(coords, self.factors, self._strides):
            if not 0 <= c < f.size:
                raise ValueError(f"coordinate {c} out of range for factor {f}")
            flat += c * s
        return flat

    def coords_of(self, index: int) -> tuple[int, ...]:
        """Per-factor indices of a flat index."""
        if not 0 <= index < self.space.size:
            raise ValueError(f"flat index {index} out of range")
        out = []
        for s in self._strides:
            c, index = divmod(index, s)
            out.append(c)
        return tuple(out)

    def product_mask(self, factor_masks) -> int:
        """Flat mask of a product set, one subset mask per factor."""
        factor_masks = tuple(factor_masks)
        if len(factor_masks) != len(self.factors):
            raise ValueError("need one mask per factor")
        picks = []
        for f, m in zip(self.factors, factor_masks):
            if m < 0 or m > f.full_mask:
                raise ValueError(f"mask {m} out of range for factor {f}")
            picks.append([i for i in range(f.size) if m >> i & 1])
        mask = 0
        for coords in _iterproduct(*picks):
            mask |= 1 << self.index_of(coords)
        return mask


@lru_cache(maxsize=256)
def _product_space(factors: tuple) -> ProductSpace:
    """The ProductSpace of a tuple of factor spaces, shared between calls.

    Games and tensor products rebuild the same few products over and over.
    Sharing them also makes a belief built by tensor_n live on its game's
    own opponent space object, so comparing the two is an identity test.
    The cache keeps the 256 most recently used.
    """
    return ProductSpace(factors)
