"""Learning substrate: linear SVM and exact hyperplane predicates."""

from .hyperplane import DisjunctivePredicate, Hyperplane
from .rationalize import rationalize_weights
from .svm import SvmModel, train_linear_svm

__all__ = [
    "DisjunctivePredicate",
    "Hyperplane",
    "SvmModel",
    "rationalize_weights",
    "train_linear_svm",
]
