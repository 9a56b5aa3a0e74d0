"""Estimator plumbing: scikit-learn compatible parameter handling and input checks.

Estimators in this package follow the scikit-learn protocol (``get_params`` /
``set_params``, ``fit`` returning ``self``) without depending on scikit-learn
itself, so they can be dropped into pipelines, grid searches and clones from
that ecosystem. An unknown parameter name and training labels of a single
class describe the caller's data, so they raise ``InputError``.
"""

from __future__ import annotations

import inspect

import numpy as np

from .corpus import InputError


class ParamsMixin:
    """get_params/set_params driven by the constructor signature."""

    @classmethod
    def _param_names(cls) -> list[str]:
        init = cls.__init__
        if init is object.__init__:
            return []
        sig = inspect.signature(init)
        names = []
        for name, param in sig.parameters.items():
            if name == "self":
                continue
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                raise TypeError(
                    f"{cls.__name__}.__init__ must use explicit keyword "
                    "parameters to support get_params"
                )
            names.append(name)
        return sorted(names)

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise InputError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_feature_matrix(X, n_features: int | None = None) -> np.ndarray:
    """Coerce X to a 2-d float array; reject NaN/inf and wrong widths."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"expected 2-d feature matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains NaN or infinite values")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(
            f"feature matrix has {X.shape[1]} columns, expected {n_features}"
        )
    return X


def check_binary_labels(y, n_samples: int | None = None) -> np.ndarray:
    """Coerce labels to a 0/1 int array; both classes must be present."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"expected 1-d label vector, got shape {y.shape}")
    if n_samples is not None and y.shape[0] != n_samples:
        raise ValueError(f"got {y.shape[0]} labels for {n_samples} samples")
    values = set(np.unique(y).tolist())
    if not values <= {0, 1, False, True}:
        raise ValueError(f"labels must be binary 0/1, got values {sorted(values)}")
    y = y.astype(int)
    if len(np.unique(y)) < 2:
        raise InputError("training data contains a single class")
    return y
