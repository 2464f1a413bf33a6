#pragma once
// MonotonicArena — a chunked bump allocator for per-shard tenant state
// (DESIGN.md §15). Registering a million tenants through the general-purpose
// heap costs one malloc per simulator, per tenant record, per scratch
// buffer — and the resulting allocations interleave across shards, so the
// hot tick loop chases pointers all over the heap. A shard instead carves
// its tenant state out of one arena: allocation is a pointer bump inside a
// geometrically-growing chunk list, objects of one shard stay contiguous
// (cache locality on the tick path), and teardown is one walk of the
// registered destructors plus a handful of chunk frees.
//
// Not thread-safe by design: an arena belongs to exactly one RuntimeShard,
// and a shard's state is only ever touched by the one thread driving that
// shard (the pool's submit/wait hands the memory view over with
// release/acquire ordering).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace deepbat {

class MonotonicArena {
 public:
  /// `chunk_bytes` is the granularity fresh blocks are requested at;
  /// oversized allocations get a dedicated chunk of their exact size.
  explicit MonotonicArena(std::size_t chunk_bytes = std::size_t{1} << 16)
      : chunk_bytes_(chunk_bytes < 64 ? 64 : chunk_bytes) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  ~MonotonicArena() { release(); }

  /// Raw aligned storage; never freed individually. `align` must be a
  /// power of two.
  void* allocate(std::size_t bytes, std::size_t align) {
    std::size_t head = (cursor_ + (align - 1)) & ~(align - 1);
    if (chunks_.empty() || head + bytes > chunks_.back().size) {
      grow(bytes + align);
      head = (cursor_ + (align - 1)) & ~(align - 1);
    }
    void* p = chunks_.back().data.get() + head;
    cursor_ = head + bytes;
    used_ += bytes;
    return p;
  }

  /// Construct a T in the arena. Non-trivially-destructible objects are
  /// registered and destroyed (in reverse construction order) by release()
  /// or the arena's destructor.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    T* obj = new (p) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.push_back(
          {obj, [](void* o) { static_cast<T*>(o)->~T(); }});
    }
    return obj;
  }

  /// Uninitialized array of trivially-destructible Ts.
  template <typename T>
  T* create_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena arrays must not need destructors");
    return static_cast<T*>(allocate(sizeof(T) * n, alignof(T)));
  }

  /// Bytes handed out / bytes held in chunks.
  std::size_t bytes_used() const { return used_; }
  std::size_t bytes_reserved() const { return reserved_; }

  /// Destroy every registered object (reverse order) and free all chunks.
  void release() {
    for (std::size_t i = dtors_.size(); i > 0; --i) {
      dtors_[i - 1].destroy(dtors_[i - 1].object);
    }
    dtors_.clear();
    chunks_.clear();
    cursor_ = 0;
    used_ = 0;
    reserved_ = 0;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };
  struct Dtor {
    void* object;
    void (*destroy)(void*);
  };

  void grow(std::size_t at_least) {
    // Double the chunk size as the arena grows so a million-tenant shard
    // allocates O(log bytes) chunks, not O(bytes / chunk).
    std::size_t size = chunk_bytes_ << (chunks_.size() < 16
                                            ? chunks_.size()
                                            : std::size_t{16});
    if (size < at_least) size = at_least;
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(size), size});
    reserved_ += size;
    cursor_ = 0;
  }

  std::size_t chunk_bytes_;
  std::size_t cursor_ = 0;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
  std::vector<Chunk> chunks_;
  std::vector<Dtor> dtors_;
};

}  // namespace deepbat
