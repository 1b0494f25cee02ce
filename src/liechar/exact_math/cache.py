"""The one caching rule of the library.

A structure is cached on the object that owns it, in the owner's `derived`
dict, and only after its checks passed: `cached` stores a value once its
build has returned, so a build that raises (a failed check) stores nothing
and raises again on the next call. Each entry of a `derived` dict is one
structure, keyed by its name, or for a family of structures by a tuple
tagged with the family's name, e.g. ("orbit_sum", t, x).

One site stores one value under several keys and writes `derived` itself:
`FiniteLieGroup.adjoint_orbit_of`, which keeps each orbit under every one
of its points, because an orbit is looked up by any point of it before
anyone knows which orbit that is.
"""


def cached(owner, key, build):
    """owner.derived[key], made by build(owner) on first use."""
    derived = owner.derived
    try:
        return derived[key]
    except KeyError:
        pass
    value = derived[key] = build(owner)
    return value
