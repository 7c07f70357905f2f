/**
 * @file
 * The one observer fan-out every hardware hook uses.
 *
 * The memory controller's access stream, the executive's sync points,
 * the LPC bus and the TPM's command stream each notify an
 * ObserverList. Any number of independent watchers (telemetry, the
 * race detector, the trace recorder, audit adversaries) may attach to
 * one hook; none displaces another. Observers only read: a hook never
 * behaves differently with observers attached.
 *
 * Attach and detach only while the owner is quiescent, never from
 * inside a callback.
 */

#ifndef MINTCB_COMMON_OBSERVERS_HH
#define MINTCB_COMMON_OBSERVERS_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace mintcb
{

/** Non-owning observers of one hook, notified in attach order. */
template <class T>
class ObserverList
{
  public:
    /** Attach @p obs (idempotent: re-adding an attached observer does
     *  not duplicate its callbacks; nullptr is ignored). */
    void
    add(T *obs)
    {
        if (obs == nullptr || contains(obs))
            return;
        list_.push_back(obs);
    }

    /** Detach @p obs (idempotent: unknown observers are ignored). */
    void
    remove(T *obs)
    {
        list_.erase(std::remove(list_.begin(), list_.end(), obs),
                    list_.end());
    }

    bool
    contains(const T *obs) const
    {
        return std::find(list_.begin(), list_.end(), obs) != list_.end();
    }

    std::size_t size() const { return list_.size(); }
    bool empty() const { return list_.empty(); }

    /** Attach-order iteration, for the owner's notify loop. */
    auto begin() const { return list_.begin(); }
    auto end() const { return list_.end(); }

  private:
    std::vector<T *> list_;
};

} // namespace mintcb

#endif // MINTCB_COMMON_OBSERVERS_HH
