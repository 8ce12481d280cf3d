/**
 * @file
 * An immutable shared value that reader threads snapshot while a
 * writer replaces it.
 *
 * load() hands out the current value; store() swaps in a new one. A
 * reader's snapshot stays valid for as long as it holds it, so a
 * reader that loads once per batch sees one consistent value for the
 * whole batch. A mutex guards only the pointer copy or swap; the old
 * value is released outside it.
 *
 * Not std::atomic<std::shared_ptr>: libstdc++ 12 implements that
 * with a spin lock in the control word (it is not lock-free either),
 * and its load() releases the lock with a relaxed store, so
 * ThreadSanitizer reports every store() racing a load() as a data
 * race on the stored pointer.
 */

#ifndef PS3_COMMON_SHARED_SNAPSHOT_HPP
#define PS3_COMMON_SHARED_SNAPSHOT_HPP

#include <memory>
#include <mutex>
#include <utility>

namespace ps3 {

/** Mutex-guarded shared_ptr<const T> with snapshot semantics. */
template <typename T>
class SharedSnapshot
{
  public:
    explicit SharedSnapshot(std::shared_ptr<const T> value)
        : value_(std::move(value))
    {
    }

    /** The current value. */
    std::shared_ptr<const T>
    load() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return value_;
    }

    /** Replace the value; readers holding the old one keep it. */
    void
    store(std::shared_ptr<const T> value)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            value_.swap(value);
        }
        // `value` now holds the old snapshot: freed here, unlocked.
    }

  private:
    mutable std::mutex mutex_;
    std::shared_ptr<const T> value_;
};

} // namespace ps3

#endif // PS3_COMMON_SHARED_SNAPSHOT_HPP
