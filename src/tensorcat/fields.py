"""Exact arithmetic over Q, F_p and simple extensions k0[t]/(f).

A Field is either a prime field (Q or F_p) or a single extension layer
over its prime field, presented by a monic irreducible polynomial.  Towers
are not supported; present them by a primitive element instead.  This
keeps every scalar in a unique canonical form, so equality of scalars is
literal equality of coefficient vectors.

Scalars are immutable.  Coefficients of the prime field are reduced
residues in [0, p) in characteristic p.  In characteristic zero a
coefficient is an `int` when it is integral and a `fractions.Fraction`
(with denominator > 1) otherwise; every operation normalises its result
to that form (`_qn`).  Most inputs -- structure constants, associators,
group-algebra products -- are integers, and in CPython an `int` product
costs a few percent of a `Fraction` product.  Each value still has
exactly one coefficient form, and since `Fraction(n) == n` and
`hash(Fraction(n)) == hash(n)`, equality, hashing and printing are the
same as with `Fraction`s throughout.
"""

from fractions import Fraction


class FieldError(Exception):
    pass


class FieldMismatch(FieldError):
    """Operands belong to different fields."""


class DivisionByZero(FieldError):
    """Multiplicative inverse of zero requested."""


class NotAnEmbedding(FieldError):
    """The proposed generator image is not a root of the source minpoly."""


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# the bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; FieldError from
    _MR_BOUND on, where these bases no longer decide it."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise FieldError(f"{n} is too large to decide primality exactly "
                         f"(the bound is {_MR_BOUND})")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# the polynomial kernel: dense coefficient lists over a ring whose
# arithmetic, zero and one are passed in.  It inverts in extension fields,
# runs rational factoring over F_p and the integers, and `Poly`'s product,
# division and modular inverse and the char-p radical's truncated
# characteristic polynomials over a field's coefficient tuples.

def _qn(x):
    """Canonical characteristic-zero coefficient: an int when integral."""
    return x if type(x) is int else (
        x.numerator if x.denominator == 1 else x)


def _b_trim(cs, zero=0):
    while cs and cs[-1] == zero:
        cs.pop()
    return cs


def _b_mul(a, b, badd, bmul, zero=0):
    """Product of coefficient lists."""
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = badd(out[i + j], bmul(x, y))
    return out


def _b_divmod(num, den, bsub, bmul, binv, zero=0, one=1):
    """Polynomial division of coefficient lists, den nonzero; binv is not
    called when den is monic."""
    num = list(num)
    q = [zero] * max(0, len(num) - len(den) + 1)
    inv_lc = None if den[-1] == one else binv(den[-1])
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if inv_lc is not None:
            c = bmul(c, inv_lc)
        if c == zero:
            continue
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] = bsub(num[i + j], bmul(c, d))
    return _b_trim(q, zero), _b_trim(num[: len(den) - 1], zero)


def _b_inv_mod(a, mod, bsub, bmul, binv, zero=0, one=1):
    """The inverse of a modulo mod, a trimmed list of degree below mod's;
    FieldError if a and mod are not coprime."""
    # extended Euclid on (mod, a)
    r0, r1 = list(mod), _b_trim(list(a), zero)
    s0, s1 = [], [one]
    while r1:
        q, r = _b_divmod(r0, r1, bsub, bmul, binv, zero, one)
        s = list(s0)
        # s0 - q*s1
        for i, qc in enumerate(q):
            if qc == zero:
                continue
            for j, sc in enumerate(s1):
                k = i + j
                while len(s) <= k:
                    s.append(zero)
                s[k] = bsub(s[k], bmul(qc, sc))
        r0, r1 = r1, r
        s0, s1 = s1, _b_trim(s, zero)
    # r0 = gcd, a unit of the coefficient field when a and mod are coprime
    if len(r0) != 1:
        raise FieldError("not coprime: the gcd has positive degree")
    c = binv(r0[0])
    return [bmul(sc, c) for sc in s0]


class Field:
    """An exact field: Q, F_p, or one extension layer over either."""

    __slots__ = ("char", "minpoly", "deg", "gen_name", "_red", "_hash",
                 "_zero", "_one", "_zero_c")

    def __init__(self, char: int, minpoly=None, gen_name: str = "a"):
        if char != 0 and not is_prime(char):
            raise FieldError(f"characteristic must be 0 or prime, got {char}")
        self.char = char
        self.gen_name = gen_name
        if minpoly is None:
            self.minpoly = None
            self.deg = 1
        else:
            mp = tuple(self._bcanon(c) for c in minpoly)
            if len(mp) < 3:
                raise FieldError("extension minpoly must have degree >= 2")
            if mp[-1] != 1:
                raise FieldError("extension minpoly must be monic")
            self.minpoly = mp
            self.deg = len(mp) - 1
        self._hash = hash((self.char, self.minpoly))
        self._red = None
        if self.minpoly is not None:
            self._red = self._reduction_table()
        self._zero_c = (0,) * self.deg
        self._zero = Scalar(self, self._zero_c)
        self._one = Scalar(self, (1,) + (0,) * (self.deg - 1))
        if self.minpoly is not None:
            from .poly import Poly, is_irreducible
            base = Field(self.char)
            if not is_irreducible(
                    Poly(base, [base.scalar(c) for c in self.minpoly])):
                raise FieldError("extension minpoly is reducible")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def rationals() -> "Field":
        return Field(0)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @staticmethod
    def extension(char: int, minpoly, gen_name: str = "a") -> "Field":
        """Extension of the prime field of `char` by a monic irreducible."""
        base = Field(char)
        coeffs = [base._parse_base(c) for c in minpoly]
        return Field(char, coeffs, gen_name=gen_name)

    # -- base (prime-field) coefficient arithmetic -------------------------
    def _bcanon(self, c):
        if type(c) is int:
            return c % self.char if self.char else c
        c = Fraction(c)
        if self.char == 0:
            return _qn(c)
        # a rational n/d is n * d^-1 in F_p, not its integer part
        return c.numerator * pow(c.denominator, -1, self.char) % self.char

    def _parse_base(self, c):
        if isinstance(c, str):
            if "/" in c:
                n, d = c.split("/")
                n, d = int(n), int(d)
                if (d % self.char if self.char else d) == 0:
                    raise FieldError(f"denominator of {c!r} is zero in {self!r}")
                if self.char == 0:
                    return _qn(Fraction(n, d))
                return (n * pow(d, -1, self.char)) % self.char
            c = int(c)
        return self._bcanon(c)

    def _badd(self, a, b):
        return _qn(a + b) if self.char == 0 else (a + b) % self.char

    def _bsub(self, a, b):
        return _qn(a - b) if self.char == 0 else (a - b) % self.char

    def _bmul(self, a, b):
        return _qn(a * b) if self.char == 0 else (a * b) % self.char

    def _binv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.char == 0:
            return _qn(Fraction(1) / a)
        return pow(a, -1, self.char)

    # -- reduction of t^k for k in [deg, 2*deg-2] ---------------------------
    def _reduction_table(self):
        d = self.deg
        table = {}
        # t^d = -(m_0 + m_1 t + ... + m_{d-1} t^{d-1})
        cur = [self._bsub(0, c) for c in self.minpoly[:d]]
        table[d] = list(cur)
        for k in range(d + 1, 2 * d - 1):
            nxt = [0] + cur[: d - 1]
            top = cur[d - 1]
            if top != 0:
                for j in range(d):
                    nxt[j] = self._badd(nxt[j], self._bmul(top, table[d][j]))
            table[k] = nxt
            cur = nxt
        return table

    # -- scalar-level arithmetic on coefficient tuples ----------------------
    # a degree-1 field does its one int or Fraction operation inline,
    # normalised as `_qn` does in characteristic zero
    def _add(self, a, b):
        if self.deg == 1:
            x = a[0] + b[0]
            if self.char:
                return (x % self.char,)
            return (x if type(x) is int or x.denominator != 1
                    else x.numerator,)
        return tuple(self._badd(x, y) for x, y in zip(a, b))

    def _sub(self, a, b):
        if self.deg == 1:
            x = a[0] - b[0]
            if self.char:
                return (x % self.char,)
            return (x if type(x) is int or x.denominator != 1
                    else x.numerator,)
        return tuple(self._bsub(x, y) for x, y in zip(a, b))

    def _neg(self, a):
        if self.deg == 1:
            return (self._bsub(0, a[0]),)
        return tuple(self._bsub(0, x) for x in a)

    def _mul(self, a, b):
        d = self.deg
        if d == 1:
            x = a[0] * b[0]
            if self.char:
                return (x % self.char,)
            return (x if type(x) is int or x.denominator != 1
                    else x.numerator,)
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y == 0:
                    continue
                prod[i + j] = self._badd(prod[i + j], self._bmul(x, y))
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c == 0:
                continue
            red = self._red[k]
            for j in range(d):
                prod[j] = self._badd(prod[j], self._bmul(c, red[j]))
        return tuple(prod[:d])

    def _inv(self, a):
        if all(x == 0 for x in a):
            raise DivisionByZero("inverse of zero")
        if self.deg == 1:
            return (self._binv(a[0]),)
        # minpoly is irreducible, so every nonzero a is coprime to it
        s = _b_inv_mod(a, self.minpoly, self._bsub, self._bmul, self._binv)
        return tuple(s) + (0,) * (self.deg - len(s))

    # -- public scalar construction -----------------------------------------
    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def gen(self) -> "Scalar":
        if self.minpoly is None:
            raise FieldError("prime field has no extension generator")
        cs = [0] * self.deg
        cs[1] = 1
        return Scalar(self, tuple(cs))

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, 'num/den' string, coefficient list or
        Scalar of this field into a canonical Scalar."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch("scalar belongs to a different field")
            return value
        if isinstance(value, (list, tuple)):
            if len(value) > self.deg:
                raise FieldError("coefficient vector longer than field degree")
            cs = [self._parse_base(c) for c in value]
            cs += [0] * (self.deg - len(cs))
            return Scalar(self, tuple(cs))
        c = self._parse_base(value)
        cs = [c] + [0] * (self.deg - 1)
        return Scalar(self, tuple(cs))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Field) and self.char == other.char
            and self.minpoly == other.minpoly)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        base = "Q" if self.char == 0 else f"F_{self.char}"
        if self.minpoly is None:
            return base
        return f"{base}[{self.gen_name}]/(deg {self.deg})"

    def describe(self) -> dict:
        """Field descriptor used in data files."""
        d = {"char": self.char}
        if self.minpoly is not None:
            d["minpoly"] = [_base_str(c) for c in self.minpoly]
            d["gen"] = self.gen_name
        return d


def _base_str(c) -> str:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return str(c)


class Scalar:
    """An element of a Field, as a coefficient vector over the prime field."""

    __slots__ = ("field", "c")

    def __init__(self, field: Field, coeffs: tuple):
        self.field = field
        self.c = coeffs

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("operands belong to different fields")

    def __add__(self, other):
        self._check(other)
        return Scalar(self.field, self.field._add(self.c, other.c))

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.field, self.field._sub(self.c, other.c))

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.c))

    def __mul__(self, other):
        self._check(other)
        return Scalar(self.field, self.field._mul(self.c, other.c))

    def __truediv__(self, other):
        self._check(other)
        return Scalar(self.field, self.field._mul(self.c, self.field._inv(other.c)))

    def inv(self) -> "Scalar":
        return Scalar(self.field, self.field._inv(self.c))

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return self.c != self.field._zero_c

    def is_zero(self) -> bool:
        return self.c == self.field._zero_c

    def __eq__(self, other):
        return (isinstance(other, Scalar) and other.c == self.c
                and (other.field is self.field or other.field == self.field))

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.field._hash, self.c))

    def __repr__(self):
        if len(self.c) == 1:
            return _base_str(self.c[0])
        name = self.field.gen_name
        terms = []
        for i, x in enumerate(self.c):
            if x == 0:
                continue
            if i == 0:
                terms.append(_base_str(x))
            else:
                mon = name if i == 1 else f"{name}^{i}"
                terms.append(mon if x == 1 else f"{_base_str(x)}*{mon}")
        return " + ".join(terms) if terms else "0"

    def serialize(self) -> list:
        """Coefficient vector as strings, length = field degree."""
        return [_base_str(x) for x in self.c]


class Embedding:
    """A field embedding src -> dst determined by the image of the generator.

    For prime fields the generator image is ignored; the embedding is the
    canonical inclusion of the common prime field.  Construction verifies
    that the image is a root of the source minpoly.
    """

    __slots__ = ("src", "dst", "gen_image")

    def __init__(self, src: Field, dst: Field, gen_image: Scalar | None = None):
        if src.char != dst.char:
            raise NotAnEmbedding("characteristics differ")
        self.src = src
        self.dst = dst
        if src.minpoly is None:
            self.gen_image = None
        else:
            if gen_image is None:
                raise NotAnEmbedding("extension source requires a generator image")
            g = dst.scalar(gen_image)
            # evaluate src.minpoly at g inside dst
            acc = dst.zero()
            for c in reversed(src.minpoly):
                acc = acc * g + dst.scalar(c)
            if acc:
                raise NotAnEmbedding("generator image is not a root of the minpoly")
            self.gen_image = g

    def __call__(self, x: Scalar) -> Scalar:
        if x.field != self.src:
            raise FieldMismatch("scalar not in the embedding source field")
        if self.src.minpoly is None:
            return self.dst.scalar(x.c[0])
        acc = self.dst.zero()
        for c in reversed(x.c):
            acc = acc * self.gen_image + self.dst.scalar(c)
        return acc


def embed(x: Scalar, src: Field, dst: Field, image_of_generator=None) -> Scalar:
    """Ring-homomorphic image of x under the embedding src -> dst."""
    return Embedding(src, dst, image_of_generator)(x)
