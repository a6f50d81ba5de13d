"""Exact mensuration of quadrilaterals: the gross and square-root area
rules, Heron's rule, perpendicular splits, cyclic diagonal formulas,
rhombus families, integer cyclic quadrilateral construction, and an
independent coordinate-embedding oracle.

Each name is imported from the module that defines it, for example
`from cyclicquad.mensuration import quad`; the package re-exports
nothing, so `import cyclicquad` loads none of its modules."""
