"""Enriched binomial coefficients over finite fields of odd characteristic.

Grothendieck-Witt valued analogues of Pascal's triangle, their twisted
variant on balanced necklaces, and the necklace-orbit enumeration that
independently validates the closed forms.
"""
