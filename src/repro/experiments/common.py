"""Shared infrastructure for experiment drivers.

Provides the :class:`ExperimentResult` container every driver returns, and
cached access to the default simulated field study and lab dictionaries so
that the tables, figures and ablations all analyze the *same* dataset —
exactly as the paper analyzes one dataset throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.tables import render_comparison, render_table
from repro.attacks.dictionary import HumanSeededDictionary
from repro.study.dataset import StudyDataset
from repro.study.fieldstudy import PAPER_STUDY, FieldStudyConfig, generate_field_study
from repro.study.image import cars_image, pool_image
from repro.study.labstudy import LabStudyConfig, generate_lab_study

__all__ = [
    "ExperimentResult",
    "default_dataset",
    "default_dictionary",
    "enrolled_store",
    "clear_caches",
]


@dataclass(frozen=True)
class ExperimentResult:
    """Uniform result object for every experiment driver.

    Attributes
    ----------
    experiment_id:
        Stable identifier ("table1", "figure8", "ablation_selection", …).
    title:
        Human-readable description, including the paper artifact it
        reproduces.
    headers / rows:
        The reproduced table or figure series as aligned-table data.
    comparisons:
        Paper-vs-measured rows (``label``/``paper``/``measured`` dicts);
        empty for experiments with no published counterpart.
    notes:
        Caveats and interpretation (e.g. "shape target, human data
        substituted by simulation").
    """

    experiment_id: str
    title: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple, ...]
    comparisons: Tuple[Dict, ...] = ()
    notes: str = ""

    def rendered(self, digits: int = 1) -> str:
        """Full text report: data table, comparisons, notes."""
        parts = [render_table(self.headers, self.rows, title=self.title, digits=digits)]
        if self.comparisons:
            parts.append("")
            parts.append(
                render_comparison(
                    list(self.comparisons),
                    title="paper vs measured",
                    digits=digits,
                )
            )
        if self.notes:
            parts.append("")
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)


@functools.lru_cache(maxsize=4)
def _dataset_for(config: FieldStudyConfig) -> StudyDataset:
    return generate_field_study(config)


def default_dataset(config: Optional[FieldStudyConfig] = None) -> StudyDataset:
    """The shared simulated field study (cached per configuration).

    All tables/figures default to the same dataset, mirroring the paper's
    single-dataset methodology.
    """
    return _dataset_for(config if config is not None else PAPER_STUDY)


@functools.lru_cache(maxsize=8)
def _dictionary_for(image_name: str, seed: int, passwords: int) -> HumanSeededDictionary:
    images = {"cars": cars_image, "pool": pool_image}
    if image_name not in images:
        raise KeyError(
            f"no canonical image {image_name!r}; known: {sorted(images)}"
        )
    lab = generate_lab_study(
        images[image_name](), LabStudyConfig(passwords=passwords, seed=seed)
    )
    return HumanSeededDictionary.from_lab_passwords(lab)


def default_dictionary(
    image_name: str, seed: int = 1387, passwords: int = 30
) -> HumanSeededDictionary:
    """The shared lab-seeded attack dictionary for a canonical image."""
    return _dictionary_for(image_name, seed, passwords)


def enrolled_store(
    scheme,
    image_name: str = "cars",
    backend_uri: str = "memory:",
    victims: Optional[int] = None,
    policy=None,
):
    """A :class:`~repro.passwords.store.PasswordStore` holding the default
    field-study population, enrolled once and resumed thereafter.

    Accounts are named ``user<password_id>`` after the dataset passwords on
    *image_name*.  Accounts already present in the backend (a reopened
    ``sqlite:``/``shards:`` URI) are kept as-is — enrollment cost is paid
    once per backend, and repeated attack/experiment runs share the same
    enrolled population, lockout state included.
    """
    from repro.passwords.passpoints import PassPointsSystem
    from repro.passwords.policy import LockoutPolicy
    from repro.passwords.storage import backend_from_uri
    from repro.passwords.store import PasswordStore

    images = {"cars": cars_image, "pool": pool_image}
    system = PassPointsSystem(image=images[image_name](), scheme=scheme)
    backend = backend_from_uri(backend_uri)
    store = PasswordStore(
        system=system,
        policy=policy if policy is not None else LockoutPolicy(max_failures=3),
        backend=backend,
    )
    samples = default_dataset().passwords_on(image_name)
    if victims is not None:
        samples = samples[:victims]
    for sample in samples:
        username = f"user{sample.password_id}"
        if username not in backend:
            store.create_account(username, list(sample.points))
    return store


def clear_caches() -> None:
    """Drop cached datasets/dictionaries (for tests that vary configs)."""
    _dataset_for.cache_clear()
    _dictionary_for.cache_clear()
