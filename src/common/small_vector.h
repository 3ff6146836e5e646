/**
 * @file
 * A small-size-optimized vector for trivially copyable elements.
 *
 * Routing paths on the mesh are short (a handful of routers) but are
 * built, copied and destroyed on every placement attempt of every
 * simulated cycle; backing them with std::vector makes the route
 * hot path allocation-bound.  SmallVector keeps up to N elements in
 * inline storage and only touches the heap for the rare long route,
 * so the common claim/release cycle never allocates.
 */

#ifndef QSURF_COMMON_SMALL_VECTOR_H
#define QSURF_COMMON_SMALL_VECTOR_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

namespace qsurf {

template <typename T, size_t N>
class SmallVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVector is specialized for trivially copyable "
                  "elements (memcpy growth, no destructor calls)");
    static_assert(N > 0, "inline capacity must be non-zero");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    SmallVector() = default;

    SmallVector(std::initializer_list<T> init)
    {
        for (const T &v : init)
            push_back(v);
    }

    SmallVector(const SmallVector &other) { copyFrom(other); }

    SmallVector(SmallVector &&other) noexcept { moveFrom(other); }

    SmallVector &
    operator=(const SmallVector &other)
    {
        if (this != &other) {
            size_ = 0;
            copyFrom(other);
        }
        return *this;
    }

    SmallVector &
    operator=(SmallVector &&other) noexcept
    {
        if (this != &other) {
            freeHeap();
            moveFrom(other);
        }
        return *this;
    }

    ~SmallVector() { freeHeap(); }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return capacity_; }

    T *data() { return data_; }
    const T *data() const { return data_; }

    iterator begin() { return data_; }
    iterator end() { return data_ + size_; }
    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }

    T &front() { return data_[0]; }
    const T &front() const { return data_[0]; }
    T &back() { return data_[size_ - 1]; }
    const T &back() const { return data_[size_ - 1]; }

    void clear() { size_ = 0; }

    void
    reserve(size_t n)
    {
        if (n > capacity_)
            grow(n);
    }

    void
    push_back(const T &v)
    {
        if (size_ == capacity_) {
            // Copy first: v may alias an element of this vector,
            // and grow() frees the old buffer.
            T detached = v;
            grow(capacity_ * 2);
            data_[size_++] = detached;
            return;
        }
        data_[size_++] = v;
    }

    void pop_back() { --size_; }

    friend bool
    operator==(const SmallVector &a, const SmallVector &b)
    {
        return a.size_ == b.size_
            && std::equal(a.begin(), a.end(), b.begin());
    }

  private:
    bool onHeap() const { return data_ != inline_; }

    void
    freeHeap()
    {
        if (onHeap())
            ::operator delete(data_);
    }

    void
    copyFrom(const SmallVector &other)
    {
        reserve(other.size_);
        std::memcpy(static_cast<void *>(data_), other.data_,
                    other.size_ * sizeof(T));
        size_ = other.size_;
    }

    /** Steal @p other's heap buffer (or copy its inline one), then
     *  reset it to the empty inline state. */
    void
    moveFrom(SmallVector &other) noexcept
    {
        if (other.onHeap()) {
            data_ = other.data_;
            capacity_ = other.capacity_;
            size_ = other.size_;
        } else {
            data_ = inline_;
            capacity_ = N;
            size_ = other.size_;
            std::memcpy(static_cast<void *>(inline_), other.inline_,
                        other.size_ * sizeof(T));
        }
        other.data_ = other.inline_;
        other.capacity_ = N;
        other.size_ = 0;
    }

    void
    grow(size_t n)
    {
        // Capacity never drops below N; saying so also keeps GCC's
        // -Warray-bounds from assuming an empty allocation.
        size_t cap = std::max({n, capacity_ * 2, N});
        T *fresh = static_cast<T *>(::operator new(cap * sizeof(T)));
        std::memcpy(static_cast<void *>(fresh), data_,
                    size_ * sizeof(T));
        freeHeap();
        data_ = fresh;
        capacity_ = cap;
    }

    T inline_[N];
    T *data_ = inline_;
    size_t size_ = 0;
    size_t capacity_ = N;
};

} // namespace qsurf

#endif // QSURF_COMMON_SMALL_VECTOR_H
