"""Abstract multi-objective problem interface.

Optimisers in :mod:`repro.moo` and :mod:`repro.core` are written against this
interface so they can be reused on other design problems (the paper notes
MOELA applies "across many other problem domains").  The concrete 3D NoC
design problem is :class:`repro.core.problem.NocDesignProblem`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable

import numpy as np

from repro.utils.rng import RngLike


class Problem(ABC):
    """A multi-objective minimisation problem over an arbitrary design space."""

    @property
    @abstractmethod
    def num_objectives(self) -> int:
        """Number of objectives (all minimised)."""

    @property
    def objective_names(self) -> tuple[str, ...]:
        """Optional human-readable objective names."""
        return tuple(f"objective_{i}" for i in range(self.num_objectives))

    @abstractmethod
    def evaluate(self, design: Any) -> np.ndarray:
        """Objective vector of a design (length ``num_objectives``)."""

    def evaluate_many(self, designs: list[Any]) -> np.ndarray:
        """Objective matrix (``len(designs) x num_objectives``) for a batch.

        The default loops over :meth:`evaluate`; problems with a cheaper batch
        path (shared routing, caching) should override this —
        optimisers route all population-scale evaluation through it.
        """
        return np.array([self.evaluate(design) for design in designs], dtype=np.float64)

    @abstractmethod
    def random_design(self, rng: RngLike = None) -> Any:
        """A random feasible design."""

    @abstractmethod
    def neighbor(self, design: Any, rng: RngLike = None) -> Any:
        """A random feasible neighbour of ``design`` (local-search move)."""

    @abstractmethod
    def crossover(self, parent_a: Any, parent_b: Any, rng: RngLike = None) -> Any:
        """A feasible offspring recombining two parents."""

    @abstractmethod
    def mutate(self, design: Any, rng: RngLike = None) -> Any:
        """A feasible mutation of ``design``."""

    def design_key(self, design: Any) -> Hashable:
        """Hashable identity of a design (used for caching / dedup)."""
        return design

    def features(self, design: Any) -> np.ndarray:
        """Numeric feature vector describing ``design`` for learned models.

        The default implementation returns the objective vector, which is
        always available; problem-specific subclasses should add structural
        features.
        """
        return np.asarray(self.evaluate(design), dtype=np.float64)

    @property
    def evaluations(self) -> int:
        """Number of objective evaluations performed so far (0 if untracked)."""
        return 0
