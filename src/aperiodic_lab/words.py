"""Freely reduced words and cyclic words over a fixed free-group basis.

Letters are nonzero integers: ``i`` stands for the i-th basis letter and
``-i`` for its inverse.  The text format uses ``a..z`` for the basis,
uppercase for inverses, and ``1`` for the empty word.
"""

from __future__ import annotations

from operator import attrgetter, neg
from typing import Iterable, Optional, Sequence, Tuple


class Frozen:
    """Base of every value type in the package: instances are immutable.

    Public constructors validate their input and set each field once with
    ``object.__setattr__``.  Code inside the package that already holds
    valid field values builds an instance with ``_trusted``.

    A class that names the fields identifying it in ``_identity`` compares
    by value: an instance of the class equals another whose identity
    fields are equal, and hashes as they do.  A class that names none
    compares by object identity.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the setter of each slot's descriptor, in ``__slots__`` order:
        # ``_trusted`` calls them, which skips the name lookup of
        # ``object.__setattr__`` on every field
        cls._slot_setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        if "_identity" in cls.__dict__:
            key = attrgetter(*cls._identity)

            def __eq__(self, other):
                return isinstance(other, cls) and key(self) == key(other)

            def __hash__(self):
                return hash(key(self))

            cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _trusted(cls, *values):
        """An instance whose ``__slots__`` hold ``values``, in order; it
        checks nothing, so every caller says why its values are valid."""
        obj = object.__new__(cls)
        for setter, value in zip(cls._slot_setters, values):
            setter(obj, value)
        return obj

    def __reduce__(self):
        # copy and pickle would restore the fields by assignment, which
        # __setattr__ refuses; the fields of a valid instance are valid
        cls = type(self)
        return cls._trusted, tuple(getattr(self, name) for name in cls.__slots__)


class Alphabet(Frozen):
    """Basis x_1..x_N of a free group of rank N."""

    __slots__ = ("rank",)
    _identity = __slots__

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        object.__setattr__(self, "rank", rank)

    def __repr__(self):
        return f"Alphabet({self.rank})"

    def check_letter(self, letter: int) -> None:
        if not isinstance(letter, int) or letter == 0 or abs(letter) > self.rank:
            raise ValueError(f"letter {letter!r} out of range for rank {self.rank}")

    def letters(self) -> range:
        return range(1, self.rank + 1)

    def signed_letters(self) -> Tuple[int, ...]:
        return tuple(s * i for i in self.letters() for s in (1, -1))


def _letter_key(letter: int) -> int:
    # order: x_1 < x_1^-1 < x_2 < x_2^-1 < ...
    return 2 * letter if letter > 0 else 2 * (-letter) + 1


def reduce_letters(letters: Iterable[int]) -> Tuple[int, ...]:
    """Freely reduce a letter sequence.

    >>> reduce_letters([1, -1, 2])
    (2,)
    >>> reduce_letters([])
    ()
    >>> reduce_letters([1, 2, -2, 1])
    (1, 1)
    """
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class Word(Frozen):
    """A freely reduced word.  Immutable.

    Invariant: ``letters`` is freely reduced and every letter is in range
    for ``alphabet``.  The constructor checks the range and reduces its
    input.  Code inside the package that already holds letters with this
    invariant builds words with ``Word._trusted(alphabet, letters)``, which
    checks nothing.
    """

    __slots__ = ("alphabet", "letters")
    _identity = __slots__

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        letters = tuple(letters)
        for letter in letters:
            alphabet.check_letter(letter)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", reduce_letters(letters))

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return f"Word({self.alphabet.rank}, {word_str(self)!r})"

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        # both factors are reduced and in range, so cutting the junction
        # leaves a valid word; re-checking products, inverses and slices of
        # reduced words dominated the word layer
        left, right = self.letters, other.letters
        if left and right and left[-1] == -right[0]:
            k = _overlap(left, right)
            return Word._trusted(self.alphabet, left[:-k] + right[k:])
        return Word._trusted(self.alphabet, left + right)

    def inverse(self) -> "Word":
        # the inverse of a reduced word is reduced
        return Word._trusted(self.alphabet, tuple(map(neg, reversed(self.letters))))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        result = Word(self.alphabet)
        for _ in range(n):
            result = result * self
        return result

    def is_identity(self) -> bool:
        return not self.letters


class CyclicWord(Frozen):
    """A conjugacy class representative: cyclically reduced, stored in the
    lexicographically least rotation (letter order x_1 < x_1^-1 < x_2 < ...).

    Invariant: ``letters`` is cyclically reduced, in range for ``alphabet``
    and the least rotation.  The constructor establishes it from any letter
    sequence; ``CyclicWord._trusted(alphabet, letters)``, as for
    ``Word._trusted``, is only for callers inside the package that already
    hold such letters.
    """

    __slots__ = ("alphabet", "letters")
    _identity = __slots__

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        core = _strip_conjugation(Word(alphabet, letters))[0].letters
        i = _least_rotation(core)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", core[i:] + core[:i])

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return f"CyclicWord({self.alphabet.rank}, {word_str(self.as_word())!r})"

    def as_word(self) -> Word:
        # a cyclically reduced word is reduced
        return Word._trusted(self.alphabet, self.letters)


def _overlap(left: Sequence[int], right: Sequence[int]) -> int:
    """Number of letters that cancel where reduced ``left`` meets reduced
    ``right``; ``left[:len(left) - k] + right[k:]`` is the reduced product.

    >>> _overlap((1, 2, 1), (-1, -2, 2))
    2
    """
    k, m = 0, min(len(left), len(right))
    while k < m and left[-1 - k] == -right[k]:
        k += 1
    return k


def _least_rotation(letters: Tuple[int, ...]) -> int:
    """Smallest index i such that ``letters[i:] + letters[:i]`` is the least
    rotation under ``_letter_key``: Booth's algorithm, linear time.

    >>> _least_rotation((2, 1, 2, 1))
    1
    >>> _least_rotation(())
    0
    """
    s = [_letter_key(l) for l in letters] * 2
    fail = [-1] * len(s)
    k = 0  # start of the least rotation found so far
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # here i == -1
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _strip_conjugation(word: Word) -> Tuple[Word, Word]:
    # word = conj * core * conj^-1 with core cyclically reduced; slices of a
    # reduced word are reduced
    letters = word.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    alphabet = word.alphabet
    return Word._trusted(alphabet, letters[i:j]), Word._trusted(alphabet, letters[:i])


def cyclic_reduce(word: Word) -> Tuple[CyclicWord, Word]:
    """Split ``word`` as conjugator * core * conjugator^-1.

    Returns the canonical cyclic word and the conjugator, so that two words
    are conjugate iff their cores compare equal.

    >>> a = Alphabet(2)
    >>> core, conj = cyclic_reduce(parse_word(a, "baB"))
    >>> word_str(core.as_word()), word_str(conj)
    ('a', 'b')
    """
    core, conj = _strip_conjugation(word)
    letters = core.letters
    i = _least_rotation(letters)
    if i:
        # the rotation by i moves letters[:i] into the conjugator
        conj = conj * Word._trusted(word.alphabet, letters[:i])
    # a rotation of a cyclically reduced word is cyclically reduced, and
    # this one is the least
    return CyclicWord._trusted(word.alphabet, letters[i:] + letters[:i]), conj


# letters per memoised block of ``Substitution``; 4 saved less, 16 no more
_BLOCK = 8
# memo entries past which a ``Substitution`` keeps no more blocks; the
# orbits of the probes meet at most about 130 blocks per map, while a
# generator's maps, which compose the words of every sample of a run that
# builds them, would otherwise keep every block they meet
_MEMO_BLOCKS = 1024
# letters past which a block image is not kept: a hit saves a loop over 8
# images, which costs little beside copying an image this long, and a map
# used once, such as the right factor's backward map in ``aut.compose``,
# would otherwise keep a second copy of its output
_MEMO_IMAGE = 1024


# letters substituted between two tests of ``Substitution.capped``: whole
# blocks, so a capped call meets the blocks of the plain call
_CAP_CHUNK = 16 * _BLOCK


def _concatenate(out: list, images: Iterable[Tuple[int, ...]]) -> list:
    # out and every image are reduced, so only the junction can cancel
    for image in images:
        if out and image and out[-1] == -image[0]:
            k = _overlap(out, image)
            # cancel in place: slicing the image would copy it, and the
            # transient copies of long images fragment the heap
            n = len(out)
            out.extend(image)
            del out[n - k : n + k]
        else:
            out.extend(image)
    return out


class Substitution(Frozen):
    """The endomorphism x_i -> ``images[i-1]`` of the free group, applied
    to reduced words.

    The memo maps each signed letter to its image, filled on first use, and
    each block ``letters[i:i+8]`` of a longer word to the block's reduced
    image.  A word of at most 8 letters is substituted letter by letter; a
    longer one block by block, cancelling only at the junctions, so the
    result is the reduced word either way.  The memo grows over the map's
    lifetime, one entry per distinct block met, until it holds 1024
    entries; later blocks, and blocks whose image is longer than 1024
    letters, are substituted but not kept.  So besides the letter images
    it never holds more than 1024 block images of at most 1024 letters,
    however many words the map is applied to.  ``capped`` substitutes the
    same blocks and stops once the image is proved longer than a cap.
    """

    __slots__ = ("alphabet", "images", "_memo")

    def __init__(self, alphabet: Alphabet, images: Sequence[Word]):
        images = tuple(images)
        if len(images) != alphabet.rank:
            raise ValueError(f"expected {alphabet.rank} images, got {len(images)}")
        for image in images:
            if image.alphabet != alphabet:
                raise ValueError("image alphabet mismatch")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_memo", {})

    def __repr__(self):
        return f"Substitution({self.alphabet.rank}, {[word_str(w) for w in self.images]})"

    def __call__(self, word: Word) -> Word:
        return self._substitute(word, None)

    def capped(self, word: Word, cap: int) -> Optional[Word]:
        """The reduced image of ``word`` if it has at most ``cap`` letters,
        else None, as soon as the image is proved longer than ``cap``.

        Proof.  Read w = u v left to right.  Then red phi(w) =
        red(phi(u) phi(v)), and |red(x y)| >= |x| - |y| for reduced x and
        y, while |red phi(v)| <= S(v), the sum of |phi(a)| over the letters
        a of v.  So once |red phi(u)| - S(v) > cap, |red phi(w)| > cap, and
        the rest of w is not substituted.  Also |red phi(w)| <= S(w) <= |w|
        times the longest |phi(a)|; if that product is at most ``cap``, the
        image cannot exceed the cap, and the plain call runs.  Otherwise
        the test is made after every 128 letters of w once |red phi(u)| >
        cap, which it needs since S(v) >= 0, and after the last letter,
        where v is empty.
        """
        return self._substitute(word, cap)

    def _substitute(self, word: Word, cap: Optional[int]) -> Optional[Word]:
        if word.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        memo = self._memo
        if not memo:
            for i, image in enumerate(self.images, 1):
                memo[i] = image.letters
                memo[-i] = tuple(map(neg, reversed(image.letters)))
        letters = word.letters
        n = len(letters)
        step = n or 1
        if cap is not None:
            if n * max(map(len, self.images)) <= cap:
                cap = None
            else:
                step = _CAP_CHUNK
        by_block = n > _BLOCK
        out: list[int] = []
        remaining = None
        # one chunk at least, so that a negative cap refuses the empty word
        for start in range(0, n or 1, step):
            chunk = letters[start : start + step]
            if by_block:
                _concatenate(out, (
                    _block_image(memo, chunk[i : i + _BLOCK])
                    for i in range(0, len(chunk), _BLOCK)
                ))
            else:
                _concatenate(out, map(memo.__getitem__, chunk))
            if cap is not None and len(out) > cap:
                # S(v) of ``capped``, for v the letters after this chunk
                if remaining is None:
                    weight = {a: len(memo[a]) for a in self.alphabet.signed_letters()}
                    remaining = sum(map(weight.__getitem__, letters[start + step :]))
                else:
                    remaining -= sum(map(weight.__getitem__, chunk))
                if len(out) - remaining > cap:
                    return None
        return Word._trusted(self.alphabet, tuple(out))


def _block_image(memo: dict, block: Tuple[int, ...]) -> Tuple[int, ...]:
    image = memo.get(block)
    if image is None:
        image = tuple(_concatenate([], map(memo.__getitem__, block)))
        if len(memo) < _MEMO_BLOCKS and len(image) <= _MEMO_IMAGE:
            memo[block] = image
    return image


def apply_endo(images: Sequence[Word], word: Word) -> Word:
    """Substitute each basis letter of ``word`` by its image and reduce.

    ``images[i-1]`` is the image of x_i; inverse letters get inverted images.
    Code that applies one map to many words keeps a ``Substitution``.
    """
    return Substitution(word.alphabet, images)(word)


_LOWER = "abcdefghijklmnopqrstuvwxyz"


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse the text format: a..z basis, A..Z inverses, '1' the empty word.

    >>> word_str(parse_word(Alphabet(2), "abA"))
    'abA'
    """
    text = text.strip()
    if text in ("", "1"):
        return Word(alphabet)
    letters = []
    for ch in text:
        if ch in _LOWER:
            letters.append(_LOWER.index(ch) + 1)
        elif ch.lower() in _LOWER:
            letters.append(-(_LOWER.index(ch.lower()) + 1))
        else:
            raise ValueError(f"bad character {ch!r} in word {text!r}")
        alphabet.check_letter(letters[-1])
    return Word(alphabet, letters)


def word_str(word: Word) -> str:
    """Format a word in the text format (empty word prints as '1')."""
    if word.alphabet.rank > len(_LOWER):
        raise ValueError("text format only covers ranks up to 26")
    if not word.letters:
        return "1"
    return "".join(
        _LOWER[l - 1] if l > 0 else _LOWER[-l - 1].upper() for l in word.letters
    )


def all_reduced_words(alphabet: Alphabet, max_len: int) -> list:
    """All freely reduced words of length <= max_len, in shortlex order."""
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        new_frontier = []
        for prefix in frontier:
            for letter in sorted(alphabet.signed_letters(), key=_letter_key):
                if prefix and prefix[-1] == -letter:
                    continue
                new_frontier.append(prefix + (letter,))
        words.extend(new_frontier)
        frontier = new_frontier
    return [Word(alphabet, w) for w in words]
