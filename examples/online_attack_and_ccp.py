#!/usr/bin/env python3
"""Online attacks against a live store, and the CCP/PCCP systems.

Two scenarios beyond the paper's offline analysis:

1. **Online dictionary attack** (Section 5.1): a throttled login interface
   (3-strike lockout) attacked with popularity-ordered guesses, at equal r
   for both schemes.  Smaller cells + lockout make online guessing nearly
   hopeless against Centered Discretization.
2. **Cued Click-Points / Persuasive CCP**: the successor systems the paper
   discusses (Section 2), built on the same discretization layer — showing
   the implicit-feedback image path and PCCP's viewport-constrained
   password creation.

Run:  python examples/online_attack_and_ccp.py
"""

from __future__ import annotations

import numpy as np

from repro.attacks import online_attack
from repro import CenteredDiscretization, RobustDiscretization
from repro.experiments import default_dictionary, enrolled_store
from repro.passwords import CCPSystem, PCCPSystem
from repro.study import canonical_images


def online_attack_scenario() -> None:
    dictionary = default_dictionary("cars")

    print("online dictionary attack, 3-strike lockout, 100-guess budget:")
    print(f"{'scheme':<12} {'compromised':>12} {'locked out':>11} {'guesses':>8}")
    for scheme in (
        CenteredDiscretization.for_pixel_tolerance(2, 9),
        RobustDiscretization(2, 9),
    ):
        # The population enrolls once through the storage layer (memory:
        # here; pass a sqlite:/shards: URI to persist and resume — see
        # examples/storage_backends.py).
        store = enrolled_store(scheme, image_name="cars", victims=40)
        victims = store.usernames
        result = online_attack(store, dictionary, guess_budget=100)
        print(
            f"{scheme.name:<12} "
            f"{result.compromised:>7}/{len(victims):<4} "
            f"{result.locked_fraction:>10.0%} "
            f"{result.total_guesses:>8}"
        )
    print()


def ccp_scenario() -> None:
    from repro.geometry.point import Point

    images = canonical_images()
    scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
    ccp = CCPSystem(images=images, scheme=scheme)

    points = [
        Point.xy(42, 61),
        Point.xy(130, 88),
        Point.xy(227, 154),
        Point.xy(318, 222),
        Point.xy(401, 290),
    ]
    stored = ccp.enroll(points)
    good_path = ccp.image_path(stored, points)
    wrong = list(points)
    wrong[1] = Point.xy(int(points[1].x) + 60, int(points[1].y) + 60)
    wrong_path = ccp.image_path(stored, wrong)

    names = [images[i].name for i in good_path]
    wrong_names = [images[i].name for i in wrong_path]
    print("cued click-points (one click per image, path follows the clicks):")
    print(f"  correct-login image sequence: {' -> '.join(names)}")
    print(f"  wrong-2nd-click sequence:     {' -> '.join(wrong_names)}")
    print(f"  verify(correct) = {ccp.verify(stored, points)}, "
          f"verify(wrong) = {ccp.verify(stored, wrong)}")
    print("  (a diverging image path is the user's implicit cue that the")
    print("   previous click was wrong — without the system saying so)")
    print()

    rng = np.random.default_rng(11)
    pccp = PCCPSystem(ccp=ccp)
    created_points, pccp_stored = pccp.create_password(rng)
    print("persuasive CCP (creation constrained to a random 75px viewport):")
    print(
        "  system-influenced click-points: "
        f"{[(int(p.x), int(p.y)) for p in created_points]}"
    )
    print(f"  verify(created) = {pccp.verify(pccp_stored, list(created_points))}")


def main() -> None:
    online_attack_scenario()
    ccp_scenario()


if __name__ == "__main__":
    main()
