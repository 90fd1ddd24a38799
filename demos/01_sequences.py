#!/usr/bin/env python3
"""Tour of the built-in Stern-like sequences and direct evaluation.

Every preset obeys a halving recurrence

    v(2n)   = a * v(n)
    v(2n+1) = b * v(n) + c * v(n+1)     for n >= n0

with explicit starting values.  Everything below is exact integer
arithmetic; no value is ever rounded.
"""

from sternlike import PRESET_NAMES, eval_direct, eval_range, parse_spec_text, preset

print("== the preset table ==")
for name in PRESET_NAMES:
    spec = preset(name)
    print(f"{name:22s} (a,b,c)=({spec.a},{spec.b},{spec.c})  n0={spec.n0}  "
          f"init={list(spec.init)}")

print()
print("== first terms ==")
for name in PRESET_NAMES:
    print(f"{name:22s} {eval_range(preset(name), 0, 16)}")

print()
print("== the recurrence at work (stern) ==")
s = preset("stern")
for n in (5, 6, 7):
    print(f"s({2*n}) = s({n}) = {eval_direct(s, 2*n)};  "
          f"s({2*n+1}) = s({n}) + s({n+1}) = {eval_direct(s, 2*n+1)}")

print()
print("== deep single terms are cheap (an O(log n) bit descent, no memo) ==")
for n in (10**6 + 1, 2**40 + 7):
    print(f"s({n}) = {eval_direct(s, n)}")

print()
print("== z3 is 3-periodic with pattern (0, 1, -1) ==")
print(f"z3(0..11) = {eval_range(preset('z3'), 0, 11)}")
n = 10**6 + 1
print(f"z3({n}) = {eval_direct(preset('z3'), n)}   ({n} mod 3 = {n % 3})")

print()
print("== custom sequences come from `key = value` spec files ==")
text = """
# a twisted cousin
a = -1
b = 2
c = 1
n0 = 1
init = 0, 1
name = demo
"""
custom = parse_spec_text(text)
print(f"{custom.name}: {eval_range(custom, 0, 16)}")
