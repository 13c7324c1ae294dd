"""
Three t-norms and the integral they induce
==========================================

A t-norm is a commutative, associative, monotone operation on [0,1] with
identity 1.  The package ships the three classical continuous ones and an
integral that scores a fuzzy function against a capacity by sweeping levels:
take the measure of each upper level set, combine it with the level through
the t-norm, keep the best level.
"""

from fractions import Fraction

from fuzzygames import (
    FiniteSpace,
    FuzzyFunction,
    TNorm,
    check_tnorm_laws,
    make_capacity,
    possibility_from_density,
    possibility_integral,
    sugeno_integral,
    tnorm,
    tnormed_integral,
)

MIN, PROD, LUK = tnorm("min"), tnorm("prod"), tnorm("luk")

print("== the three built-in t-norms ==")
pairs = [(Fraction(3, 4), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 2))]
for a, b in pairs:
    print(f"  a={a}, b={b}:  min {MIN(a, b)}   prod {PROD(a, b)}   luk {LUK(a, b)}")
# luk <= prod <= min holds pointwise, with 1 as shared identity
for a, b in pairs:
    assert LUK(a, b) <= PROD(a, b) <= MIN(a, b)
    assert MIN(a, 1) == a and PROD(a, 1) == a and LUK(a, 1) == a

print()
print("== law checking on a rational grid ==")
for t in (MIN, PROD, LUK):
    report = check_tnorm_laws(t, grid_resolution=33)
    print(f"  {t.name}: worst violation {report.max_violation()} on a 33-point grid")
    assert report.ok()

# a user-supplied operation is admitted only after passing the same sweep
geometric = TNorm.from_function("geometric", lambda a, b: a * b)
print(f"  custom clone of the product accepted as {geometric!r}")

try:
    tnorm("drastic")
except ValueError as e:
    print(f"  drastic refused: {e}")

print()
print("== integrating a fuzzy function ==")
weather = FiniteSpace(("rain", "cloud", "sun"))
mood = FuzzyFunction(weather, (1, Fraction(1, 4), Fraction(3, 4)))
forecast = possibility_from_density(weather, {"rain": Fraction(1, 2), "cloud": 1, "sun": Fraction(3, 4)})

print(f"  function values {[str(v) for v in mood.values]}"
      f" against density {[str(d) for d in forecast.density]}")
for t in (MIN, PROD, LUK):
    v = tnormed_integral(mood, forecast, t)
    print(f"  integral under {t.name}: {v}")

# the minimum case is the Sugeno integral
assert sugeno_integral(mood, forecast) == tnormed_integral(mood, forecast, MIN)
print("  sugeno_integral agrees with the minimum t-norm case")

# for a possibility capacity the integral is also a maximum over points,
# best over x of star(density(x), f(x)), because star is monotone
for t in (MIN, PROD, LUK):
    pointwise = max(t(d, v) for d, v in zip(forecast.density, mood.values))
    assert pointwise == possibility_integral(mood, forecast, t)
    assert pointwise == tnormed_integral(mood, forecast, t)
print("  the pointwise maximum matches the level sweep on all three t-norms")

print()
print("== the level sweep, written out ==")
# candidate levels are the distinct function values; show each star(mu(f>=t), t)
table = make_capacity(
    weather,
    {
        (): 0,
        ("rain",): Fraction(1, 8),
        ("cloud",): Fraction(1, 4),
        ("sun",): Fraction(1, 2),
        ("rain", "cloud"): Fraction(1, 4),
        ("rain", "sun"): Fraction(5, 8),
        ("cloud", "sun"): Fraction(3, 4),
        ("rain", "cloud", "sun"): 1,
    },
)
best = Fraction(0)
for level in sorted(set(mood.values)):
    measure = table.value(mood.level_set(level))
    scored = MIN(measure, level)
    best = max(best, scored)
    print(f"  level {level}: measure {measure}, min(measure, level) = {scored}")
print(f"  integral = {best}")
assert best == tnormed_integral(mood, table, MIN)
