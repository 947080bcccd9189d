"""Graphical password systems built on pluggable discretization schemes.

PassPoints (the paper's evaluation target), Cued Click-Points and
Persuasive Cued Click-Points (the successor systems the paper discusses),
the Blonder predefined-region baseline, plus the server-side store with
per-user salting and online throttling.
"""

from repro.passwords.blonder import BlonderSystem
from repro.passwords.ccp import CCPSystem, next_image_index
from repro.passwords.defense import (
    DefenseConfig,
    RateLimiter,
    VirtualClock,
    apply_pepper,
)
from repro.passwords.passpoints import PassPointsSystem
from repro.passwords.pccp import PCCPSystem, ViewportSelectionModel
from repro.passwords.policy import AccountThrottle, LockoutPolicy
from repro.passwords.service import LoginOutcome, VerificationService
from repro.passwords.space3d import ClickSpace3D, Space3DSystem, space3d_password_bits
from repro.passwords.storage import (
    ConsistentHashRing,
    MemoryBackend,
    ShardedBackend,
    SQLiteBackend,
    StorageBackend,
    backend_from_uri,
    rebalance,
)
from repro.passwords.store import PasswordStore
from repro.passwords.system import (
    StoredPassword,
    enroll_password,
    locate_secrets,
    verify_password,
)

__all__ = [
    "AccountThrottle",
    "BlonderSystem",
    "CCPSystem",
    "ClickSpace3D",
    "ConsistentHashRing",
    "DefenseConfig",
    "LockoutPolicy",
    "LoginOutcome",
    "MemoryBackend",
    "PCCPSystem",
    "PassPointsSystem",
    "PasswordStore",
    "RateLimiter",
    "SQLiteBackend",
    "ShardedBackend",
    "Space3DSystem",
    "StorageBackend",
    "StoredPassword",
    "VerificationService",
    "ViewportSelectionModel",
    "VirtualClock",
    "apply_pepper",
    "backend_from_uri",
    "enroll_password",
    "locate_secrets",
    "next_image_index",
    "rebalance",
    "space3d_password_bits",
    "verify_password",
]
