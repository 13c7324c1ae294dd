import pytest

from fuzzygames import FiniteSpace, ProductSpace


AB = FiniteSpace(("a", "b"))
XYZ = FiniteSpace(("x", "y", "z"))


class TestFiniteSpace:
    def test_basics(self):
        assert AB.size == 2
        assert AB.full_mask == 0b11
        assert AB.index("b") == 1
        assert AB.labels == ("a", "b")

    def test_masks_and_members(self):
        assert XYZ.mask_of(("x", "z")) == 0b101
        assert XYZ.members(0b101) == ("x", "z")
        assert XYZ.members(0) == ()
        assert XYZ.mask_of(()) == 0
        # mask_of tolerates repeats, members keeps space order
        assert XYZ.mask_of(("z", "x", "z")) == 0b101

    def test_subsets_enumeration(self):
        masks = list(XYZ.subsets())
        assert masks[0] == 0
        assert masks[-1] == XYZ.full_mask
        assert len(masks) == 8

    def test_equality_and_hash(self):
        assert AB == FiniteSpace(["a", "b"])
        assert AB != FiniteSpace(("b", "a"))
        assert hash(AB) == hash(FiniteSpace(("a", "b")))

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            FiniteSpace(())
        with pytest.raises(ValueError, match="distinct"):
            FiniteSpace(("a", "a"))
        with pytest.raises(ValueError, match="nonempty"):
            FiniteSpace(("a", ""))
        with pytest.raises(ValueError, match="comma"):
            FiniteSpace(("a,b",))
        with pytest.raises(ValueError):
            FiniteSpace(("a", 3))

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="not a point"):
            AB.index("c")

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            AB.members(4)
        with pytest.raises(ValueError):
            AB.members(-1)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            AB.labels = ("c",)
        with pytest.raises(AttributeError):
            AB.full_mask = 0b111
        assert AB.full_mask == 0b11


class TestProductSpace:
    def test_row_major_order(self):
        prod = ProductSpace([AB, XYZ])
        assert prod.size == 6
        assert prod.space.labels == (
            "a|x", "a|y", "a|z", "b|x", "b|y", "b|z",
        )
        # last factor varies fastest
        assert prod.index_of((1, 2)) == 5
        assert prod.coords_of(5) == (1, 2)
        for k in range(prod.size):
            assert prod.index_of(prod.coords_of(k)) == k

    def test_three_factors(self):
        prod = ProductSpace([AB, AB, AB])
        assert prod.size == 8
        assert prod.space.labels[0] == "a|a|a"
        assert prod.space.labels[-1] == "b|b|b"
        assert prod.index_of((1, 0, 1)) == 5

    def test_single_factor_is_the_factor(self):
        prod = ProductSpace([XYZ])
        assert prod.space is XYZ
        assert prod.coords_of(2) == (2,)

    def test_product_mask(self):
        prod = ProductSpace([AB, XYZ])
        # {a} x {x, z} -> flat {a|x, a|z}
        m = prod.product_mask([0b01, 0b101])
        assert prod.space.members(m) == ("a|x", "a|z")
        assert prod.product_mask([0b11, XYZ.full_mask]) == prod.space.full_mask
        assert prod.product_mask([0, 0b101]) == 0

    def test_errors(self):
        prod = ProductSpace([AB, XYZ])
        with pytest.raises(ValueError):
            ProductSpace([])
        with pytest.raises(ValueError):
            ProductSpace([AB, "nope"])
        with pytest.raises(ValueError):
            prod.index_of((0,))
        with pytest.raises(ValueError):
            prod.index_of((0, 9))
        with pytest.raises(ValueError):
            prod.coords_of(6)
        with pytest.raises(ValueError):
            prod.product_mask([0b11])
        with pytest.raises(ValueError):
            prod.product_mask([0b11, 0b11111])

    def test_equality(self):
        assert ProductSpace([AB, XYZ]) == ProductSpace([AB, XYZ])
        assert ProductSpace([AB, XYZ]) != ProductSpace([XYZ, AB])
