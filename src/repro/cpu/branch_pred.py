"""Branch predictor: gshare with 2-bit saturating counters.

The trace-driven pipeline knows each branch's actual outcome; the
predictor decides whether fetch proceeds speculatively (prediction
correct) or stalls until the branch resolves (misprediction bubble).
Targets are assumed BTB-resident (tight loop kernels).
"""
from __future__ import annotations


class GsharePredictor:
    def __init__(self, index_bits: int = 12, history_bits: int = 12) -> None:
        self.size = 1 << index_bits
        self._mask = self.size - 1
        self._history_mask = (1 << history_bits) - 1
        self._table = bytearray(b"\x02" * self.size)  # weakly taken
        self._ghr = 0
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        return (pc ^ self._ghr) & self._mask

    def predict(self, pc: int) -> bool:
        self.predictions += 1
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._table[index]
        if taken:
            self._table[index] = min(3, counter + 1)
        else:
            self._table[index] = max(0, counter - 1)
        self._ghr = ((self._ghr << 1) | int(taken)) & self._history_mask

    def record_outcome(self, pc: int, taken: bool) -> bool:
        """Predict, update, and return True on a misprediction."""
        predicted = self.predict(pc)
        self.update(pc, taken)
        wrong = predicted != taken
        if wrong:
            self.mispredictions += 1
        return wrong

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions
