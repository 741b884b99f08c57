"""Synthetic images for the Section 3.3 region-labeling experiments.

The paper's images come from thresholding digitized camera input; ours are
seeded synthetic grids (random blobs, stripes, checkerboards) that exercise
the identical code path: threshold -> 4-connected label propagation ->
per-region completion.  ``connected_regions`` provides the ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "Image",
    "random_blob_image",
    "checkerboard_image",
    "stripe_image",
    "image_tuples",
    "connected_regions",
    "neighbor",
    "neighbors_of",
    "is_pixel",
]

Pixel = tuple[int, int]


def neighbor(p1: Pixel, p2: Pixel) -> bool:
    """The paper's 4-connectedness predicate."""
    (x1, y1), (x2, y2) = p1, p2
    return abs(x1 - x2) + abs(y1 - y2) == 1


def neighbors_of(p: Pixel) -> tuple[Pixel, ...]:
    """The pixels :func:`neighbor` pairs with *p*, on or off the grid:
    its enumerator (``lift(neighbor, enumerator=neighbors_of, ...)``)."""
    x, y = p
    return ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))


def is_pixel(value: object) -> bool:
    """Is *value* a pair of ints (not bools)?  The domain on which
    ``neighbor(k, p)`` is true exactly for ``k`` in ``neighbors_of(p)``;
    on other values (floats, triples, atoms) the predicate itself is asked."""
    return (
        type(value) is tuple
        and len(value) == 2
        and type(value[0]) is int
        and type(value[1]) is int
    )


@dataclass(slots=True)
class Image:
    """A dense grayscale image: ``pixels[(x, y)] = intensity``."""

    width: int
    height: int
    pixels: dict[Pixel, int]

    def positions(self) -> Iterator[Pixel]:
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def threshold(self, t: Callable[[int], int]) -> dict[Pixel, int]:
        """Apply a threshold operator T to every pixel."""
        return {pos: t(v) for pos, v in self.pixels.items()}

    def __len__(self) -> int:
        return len(self.pixels)


def random_blob_image(
    width: int, height: int, blobs: int = 3, seed: int = 0, high: int = 200, low: int = 40
) -> Image:
    """Random rectangular bright blobs on a dark background (may overlap)."""
    rng = random.Random(seed)
    pixels: dict[Pixel, int] = {}
    for y in range(height):
        for x in range(width):
            pixels[(x, y)] = low + rng.randint(-10, 10)
    for __ in range(blobs):
        bw = rng.randint(max(1, width // 6), max(2, width // 3))
        bh = rng.randint(max(1, height // 6), max(2, height // 3))
        x0 = rng.randint(0, max(0, width - bw))
        y0 = rng.randint(0, max(0, height - bh))
        for y in range(y0, min(height, y0 + bh)):
            for x in range(x0, min(width, x0 + bw)):
                pixels[(x, y)] = high + rng.randint(-10, 10)
    return Image(width, height, pixels)


def checkerboard_image(width: int, height: int, square: int = 2, high: int = 200, low: int = 40) -> Image:
    """A checkerboard: many small single-square regions (worst case)."""
    pixels = {
        (x, y): high if ((x // square) + (y // square)) % 2 == 0 else low
        for y in range(height)
        for x in range(width)
    }
    return Image(width, height, pixels)


def stripe_image(width: int, height: int, stripe: int = 2, high: int = 200, low: int = 40) -> Image:
    """Horizontal stripes: few elongated regions (best case for propagation)."""
    pixels = {
        (x, y): high if (y // stripe) % 2 == 0 else low
        for y in range(height)
        for x in range(width)
    }
    return Image(width, height, pixels)


def image_tuples(image: Image) -> list[tuple[str, Pixel, int]]:
    """The initial dataspace: one ``<image, pos, intensity>`` per pixel."""
    from repro.core.values import Atom

    tag = Atom("image")
    return [(tag, pos, value) for pos, value in image.pixels.items()]


def connected_regions(thresholded: dict[Pixel, int]) -> dict[Pixel, Pixel]:
    """Ground-truth labeling: each pixel -> max position of its 4-connected
    equal-threshold region (the label the paper's programs converge to)."""
    label: dict[Pixel, Pixel] = {}
    seen: set[Pixel] = set()
    for start in thresholded:
        if start in seen:
            continue
        value = thresholded[start]
        stack = [start]
        component: list[Pixel] = []
        seen.add(start)
        while stack:
            pos = stack.pop()
            component.append(pos)
            x, y = pos
            for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nxt in thresholded and nxt not in seen and thresholded[nxt] == value:
                    seen.add(nxt)
                    stack.append(nxt)
        top = max(component)
        for pos in component:
            label[pos] = top
    return label
