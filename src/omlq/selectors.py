"""The selectors of `omlq verify` and the prerequisites of each.

The table imports nothing, so the command line can offer the selectors
without loading the pipelines; verify re-exports SELECTORS and runs
PREREQS.
"""

SELECTORS = (
    "sasaki-facts",
    "dagger-kernel",
    "quantale",
    "involutive",
    "foulis",
    "star-props",
    "sasaki-oml",
    "modules",
    "hom",
    "roundtrip",
)

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
