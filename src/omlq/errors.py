"""Exception types shared across the toolkit.

Construction errors carry the offending labels so CLI layers can print a
usable witness without re-deriving it.
"""


class OmlqError(Exception):
    """Base class for every toolkit error."""


class FormatError(OmlqError):
    """A serialized structure is malformed or internally inconsistent."""


class NotAPoset(OmlqError):
    """An order relation that breaks law, "reflexive", "antisymmetric" or
    "transitive", at witness: its least failing (x,) or (x, y), as labels."""

    def __init__(self, law, witness):
        x, y = witness[0], witness[-1]
        super().__init__({"reflexive": f"reflexivity fails: not {x!r} <= {x!r}",
                          "antisymmetric": f"antisymmetry fails: {x!r} <= {y!r} and {y!r} <= {x!r}",
                          "transitive": f"transitivity fails: {x!r} <= z <= {y!r} for some z, "
                                        f"but not {x!r} <= {y!r}"}[law])
        self.law = law
        self.witness = tuple(witness)


class NotALattice(OmlqError):
    def __init__(self, kind, x, y):
        super().__init__(f"no {kind} for pair ({x!r}, {y!r})")
        self.kind = kind
        self.witness = (x, y)


class UnknownCatalogEntry(OmlqError):
    def __init__(self, name):
        super().__init__(f"unknown catalog entry {name!r}")
        self.name = name


class ParamOutOfRange(OmlqError):
    def __init__(self, spec, detail=""):
        msg = f"catalog parameter out of range: {spec!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.spec = spec


class DomainMismatch(OmlqError):
    """Maps were combined across incompatible domains or codomains."""


class CapExceeded(OmlqError):
    def __init__(self, cap, detail=""):
        msg = f"enumeration exceeds cap {cap}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.cap = cap


class FrontierTooLarge(CapExceeded):
    """A step of the Lin(X) enumeration would build more candidate rows
    than the desk-scale limit; refused as an input too large, not as a
    count beyond the cap."""


class TableTooLarge(OmlqError):
    """A quantale's dense tables would not fit in memory, or a lattice has
    more elements than LATTICE_ELEMENT_LIMIT; refused unbuilt."""


class NotFoulis(OmlqError):
    def __init__(self, label):
        super().__init__(
            f"no self-adjoint idempotent generates the annihilator of {label!r}"
        )
        self.label = label


class AmbiguousSai(OmlqError):
    def __init__(self, label, p, q):
        super().__init__(
            f"distinct self-adjoint idempotents {p!r} and {q!r} both generate "
            f"the annihilator of {label!r}"
        )
        self.label = label
        self.pair = (p, q)


class StructureViolation(OmlqError):
    def __init__(self, formula, witness=()):
        msg = f"derived structure violates {formula}"
        if witness:
            msg += f" at {witness!r}"
        super().__init__(msg)
        self.formula = formula
        self.witness = tuple(witness)
