"""The selectors of `omlq verify` and the prerequisites of each.

The table imports nothing, so the command line can offer the selectors
without loading the pipelines.  Its order is the order of SELECTORS, which
verify re-exports and runs through PREREQS.
"""

PREREQS = {
    "sasaki-facts": (),
    "dagger-kernel": (),
    "quantale": (),
    "involutive": (),
    "foulis": ("quantale", "involutive"),
    "star-props": ("foulis",),
    "sasaki-oml": ("foulis",),
    "modules": ("foulis", "sasaki-oml"),
    "hom": ("foulis", "sasaki-oml"),
    "roundtrip": ("foulis", "sasaki-oml"),
}

SELECTORS = tuple(PREREQS)
