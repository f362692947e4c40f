#ifndef HIMPACT_STREAM_TYPES_H_
#define HIMPACT_STREAM_TYPES_H_

#include <compare>
#include <cstdint>
#include <initializer_list>

#include "common/check.h"

/// \file
/// Stream element types for the author/paper/citation model of Section 2.2.
///
/// A paper is a tuple `(p, a^p_1..a^p_y, c_p)`; the paper assumes a fixed
/// maximum number of authors `x` per paper, which we fix at
/// `kMaxAuthorsPerPaper` to keep `PaperTuple` allocation-free.
///
/// Both element types are small and trivially copyable on purpose: the
/// shard set (`engine/shard_set.h`) copies them into per-shard batch
/// vectors by value, and the text formats in
/// `io/stream_io.h` round-trip them field by field. The partition key
/// for sharding is `paper` in both cases (see `engine/traits.h`), so
/// every update to one paper lands on the same shard.

namespace himpact {

/// Identifier of an author (a user in the impact setting).
using AuthorId = std::uint64_t;

/// Identifier of a paper (a publication/tweet/post).
using PaperId = std::uint64_t;

/// The paper's bound `x` on authors per paper (Section 2.2).
inline constexpr int kMaxAuthorsPerPaper = 8;

/// A fixed-capacity inline list of a paper's authors.
class AuthorList {
 public:
  AuthorList() = default;

  /// Builds from an initializer list. Requires size <= kMaxAuthorsPerPaper.
  AuthorList(std::initializer_list<AuthorId> authors) {
    for (const AuthorId author : authors) PushBack(author);
  }

  /// Appends an author. Requires `size() < kMaxAuthorsPerPaper`.
  void PushBack(AuthorId author) {
    HIMPACT_CHECK(size_ < kMaxAuthorsPerPaper);
    authors_[static_cast<std::size_t>(size_)] = author;
    ++size_;
  }

  /// Number of authors.
  int size() const { return size_; }

  /// True iff no authors are present.
  bool empty() const { return size_ == 0; }

  /// The `i`-th author. Requires `0 <= i < size()`.
  AuthorId operator[](int i) const {
    HIMPACT_DCHECK(i >= 0 && i < size_);
    return authors_[static_cast<std::size_t>(i)];
  }

  /// Iterators over the authors present.
  const AuthorId* begin() const { return authors_; }
  const AuthorId* end() const { return authors_ + size_; }

  /// Lists compare by their authors, in order, then by size (unused
  /// slots are always zero, so they never decide a comparison).
  friend auto operator<=>(const AuthorList&, const AuthorList&) = default;

  /// True iff `author` appears in the list.
  bool Contains(AuthorId author) const {
    for (const AuthorId a : *this) {
      if (a == author) return true;
    }
    return false;
  }

 private:
  AuthorId authors_[kMaxAuthorsPerPaper] = {};
  int size_ = 0;
};

/// One aggregate-model stream element: a paper with its final citation
/// count (Section 2.3, aggregate model).
struct PaperTuple {
  PaperId paper = 0;
  AuthorList authors;
  std::uint64_t citations = 0;
};

/// One cash-register stream element: an update `c_p += delta` for paper
/// `p` (Section 2.3, cash-register model). `delta` is positive in the
/// cash-register model; the sketches beneath also accept deletions.
struct CitationEvent {
  PaperId paper = 0;
  std::int64_t delta = 1;
};

}  // namespace himpact

#endif  // HIMPACT_STREAM_TYPES_H_
