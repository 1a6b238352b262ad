"""Shared vocabulary of the 26-dim per-frame affect representation.

Layout: valence-arousal pair, then the 7-way basic-expression
distribution, then 17 action-unit activations. Every serialized
artifact in this package uses this ordering.
"""

from __future__ import annotations

import numpy as np

EXPRESSIONS = ("anger", "disgust", "fear", "happiness", "sadness", "surprise", "neutral")

# Union of the AU sets used by the source corpora, ascending FACS ids.
AU_IDS = (1, 2, 4, 5, 6, 7, 9, 10, 11, 12, 15, 17, 20, 23, 24, 25, 26)

INTENSITY_CLASSES = (
    "Adoration",
    "Amusement",
    "Anxiety",
    "Disgust",
    "Empathic-Pain",
    "Fear",
    "Surprise",
)

# Which AUs are prototypical or observational for each basic expression.
# Neutral activates none.
_RELATED_AUS = {
    "anger": (4, 7, 10, 17, 23, 24),
    "disgust": (4, 9, 10, 17, 24),
    "fear": (1, 2, 4, 5, 20, 25, 26),
    "happiness": (6, 12, 25),
    "sadness": (1, 4, 6, 11, 15, 17),
    "surprise": (1, 2, 5, 25, 26),
    "neutral": (),
}

VA_DIM = 2
N_EXPRESSIONS = len(EXPRESSIONS)
N_AUS = len(AU_IDS)
FEATURE_DIM = VA_DIM + N_EXPRESSIONS + N_AUS

VA_SLICE = slice(0, VA_DIM)
EXPR_SLICE = slice(VA_DIM, VA_DIM + N_EXPRESSIONS)
AU_SLICE = slice(VA_DIM + N_EXPRESSIONS, FEATURE_DIM)

# Column subsets of the affect vector used by the representation ablation.
REPRESENTATION_SUBSETS = {
    "va": tuple(range(VA_DIM)),
    "expr": tuple(range(EXPR_SLICE.start, EXPR_SLICE.stop)),
    "au": tuple(range(AU_SLICE.start, AU_SLICE.stop)),
    "va+expr": tuple(range(0, EXPR_SLICE.stop)),
    "va+au": tuple(range(VA_DIM)) + tuple(range(AU_SLICE.start, AU_SLICE.stop)),
    "expr+au": tuple(range(EXPR_SLICE.start, FEATURE_DIM)),
    "all": tuple(range(FEATURE_DIM)),
}


def au_index(au_id):
    """Position of a FACS AU id inside the 17-wide activation block."""
    return AU_IDS.index(au_id)


def expression_index(name):
    return EXPRESSIONS.index(name)


def relatedness_matrix():
    """7x17 binary expression-to-AU map, rows in EXPRESSIONS order.

    Entry [e, a] is 1 iff AU_IDS[a] is prototypical or observational for
    expression e.
    """
    m = np.zeros((N_EXPRESSIONS, N_AUS), dtype=np.float64)
    for e, name in enumerate(EXPRESSIONS):
        for au in _RELATED_AUS[name]:
            m[e, au_index(au)] = 1.0
    return m

