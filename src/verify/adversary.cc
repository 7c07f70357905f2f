/**
 * @file
 * Adversary model implementations.
 *
 * All three share the same skeleton: window-filter the mediated access
 * stream, quantize to the configured granularity (page or 64 B line),
 * reduce to the model's view, and serialize canonically with the
 * big-endian ByteWriter so equal views are byte-equal.
 */

#include "verify/adversary.hh"

#include <set>
#include <tuple>
#include <vector>

#include "common/bytebuf.hh"

namespace mintcb::verify
{

namespace
{

/** One quantized touch: the unit (page [+ line]) and the direction. */
struct Touch
{
    PageNum page = 0;
    std::uint32_t line = 0;
    bool isWrite = false;

    bool
    operator==(const Touch &other) const
    {
        return page == other.page && line == other.line &&
               isWrite == other.isWrite;
    }
    bool
    operator<(const Touch &other) const
    {
        return std::tie(page, line, isWrite) <
               std::tie(other.page, other.line, other.isWrite);
    }
};

void
writeTouch(ByteWriter &w, const Touch &t)
{
    w.u64(t.page);
    w.u32(t.line);
    w.u8(t.isWrite ? 1 : 0);
}

/** Common base: windowing, granularity quantization, attach plumbing.
 *  Subclasses get one onTouch() per quantized unit the access covers
 *  (denied probes included -- the address leaks either way). */
class WindowedAdversary : public Adversary, public machine::MemAccessObserver
{
  public:
    WindowedAdversary(PageNum first, PageNum last, Granularity g)
        : first_(first), last_(last), granularity_(g)
    {
    }
    ~WindowedAdversary() override { WindowedAdversary::detach(); }

    WindowedAdversary(const WindowedAdversary &) = delete;
    WindowedAdversary &operator=(const WindowedAdversary &) = delete;

    void
    attach(machine::Machine &machine) override
    {
        detach();
        machine_ = &machine;
        machine.memctrl().accessObservers().add(this);
    }

    void
    detach() override
    {
        if (machine_)
            machine_->memctrl().accessObservers().remove(this);
        machine_ = nullptr;
    }

    void
    onAccess(const machine::Agent &agent, PageNum page,
             std::uint32_t offset, std::uint32_t len, bool isWrite,
             bool granted) override
    {
        (void)granted;
        if (page < first_ || page > last_)
            return;
        if (granularity_ == Granularity::page) {
            onTouch(agent, {page, 0, isWrite});
            return;
        }
        const auto lineSize = static_cast<std::uint32_t>(cacheLineSize);
        const std::uint32_t firstLine = offset / lineSize;
        const std::uint32_t lastLine =
            len ? (offset + len - 1) / lineSize : firstLine;
        for (std::uint32_t l = firstLine; l <= lastLine; ++l)
            onTouch(agent, {page, l, isWrite});
    }

  protected:
    virtual void onTouch(const machine::Agent &agent,
                         const Touch &touch) = 0;

    /** The victim machine while attached (clock access). */
    machine::Machine *machine_ = nullptr;

  private:
    PageNum first_;
    PageNum last_;
    Granularity granularity_;
};

/** Model 1: the passive sweep. Order and multiplicity are invisible;
 *  the view is the sorted set of distinct touches. */
class PageTraceAdversary final : public WindowedAdversary
{
  public:
    using WindowedAdversary::WindowedAdversary;

    AdversaryKind kind() const override
    {
        return AdversaryKind::pageTrace;
    }
    void clear() override { footprint_.clear(); }

    Bytes
    view() const override
    {
        ByteWriter w;
        w.u32(static_cast<std::uint32_t>(footprint_.size()));
        for (const Touch &t : footprint_)
            writeTouch(w, t);
        return w.take();
    }

  protected:
    void
    onTouch(const machine::Agent &, const Touch &touch) override
    {
        footprint_.insert(touch);
    }

  private:
    std::set<Touch> footprint_; //!< canonical order for free
};

/** Model 2: the induced fault chain. Consecutive repeats of the same
 *  unit cannot both fault, so they collapse; everything else keeps its
 *  order. */
class ControlledChannelAdversary final : public WindowedAdversary
{
  public:
    using WindowedAdversary::WindowedAdversary;

    AdversaryKind kind() const override
    {
        return AdversaryKind::controlledChannel;
    }
    void
    clear() override
    {
        chain_.clear();
        hasLast_ = false;
    }

    Bytes
    view() const override
    {
        ByteWriter w;
        w.u32(static_cast<std::uint32_t>(chain_.size()));
        for (const Touch &t : chain_)
            writeTouch(w, t);
        return w.take();
    }

  protected:
    void
    onTouch(const machine::Agent &, const Touch &touch) override
    {
        // Re-protection happens when the victim moves on: the same
        // unit touched twice in a row stays mapped and faults once.
        if (hasLast_ && touch.page == last_.page &&
            touch.line == last_.line) {
            return;
        }
        chain_.push_back(touch);
        last_ = touch;
        hasLast_ = true;
    }

  private:
    std::vector<Touch> chain_;
    Touch last_{};
    bool hasLast_ = false;
};

/** Model 3: the interrupt single-stepper. Every touch is recorded with
 *  the stepped window (victim-clock quantum) it happened in, so the
 *  view carries order, multiplicity and coarse timing. */
class SingleStepAdversary final : public WindowedAdversary
{
  public:
    using WindowedAdversary::WindowedAdversary;

    AdversaryKind kind() const override
    {
        return AdversaryKind::singleStep;
    }
    void
    clear() override
    {
        steps_.clear();
        epoch_ = machine_ ? machine_->now() : TimePoint();
    }

    void
    attach(machine::Machine &machine) override
    {
        WindowedAdversary::attach(machine);
        // Stepping starts now: windows are counted from attach time so
        // two same-shaped victim runs land in the same windows.
        epoch_ = machine.now();
    }

    Bytes
    view() const override
    {
        ByteWriter w;
        w.u32(static_cast<std::uint32_t>(steps_.size()));
        for (const auto &s : steps_) {
            w.u64(s.window);
            writeTouch(w, s.touch);
        }
        return w.take();
    }

  protected:
    void
    onTouch(const machine::Agent &agent, const Touch &touch) override
    {
        std::uint64_t window = 0;
        if (machine_ && agent.kind == machine::Agent::Kind::cpu &&
            agent.cpu < machine_->cpuCount()) {
            const Duration sinceEpoch =
                machine_->cpu(agent.cpu).now() - epoch_;
            if (sinceEpoch.ticks() > 0) {
                window = static_cast<std::uint64_t>(
                    sinceEpoch.ticks() / singleStepCadence.ticks());
            }
        }
        steps_.push_back({window, touch});
    }

  private:
    struct Step
    {
        std::uint64_t window = 0;
        Touch touch;
    };

    std::vector<Step> steps_;
    TimePoint epoch_{};
};

} // namespace

const char *
adversaryName(AdversaryKind kind)
{
    switch (kind) {
      case AdversaryKind::pageTrace:
        return "page-trace";
      case AdversaryKind::controlledChannel:
        return "ctrl-channel";
      case AdversaryKind::singleStep:
        return "single-step";
    }
    return "unknown";
}

std::unique_ptr<Adversary>
makeAdversary(AdversaryKind kind, PageNum first_page, PageNum last_page,
              Granularity granularity)
{
    switch (kind) {
      case AdversaryKind::pageTrace:
        return std::make_unique<PageTraceAdversary>(
            first_page, last_page, granularity);
      case AdversaryKind::controlledChannel:
        return std::make_unique<ControlledChannelAdversary>(
            first_page, last_page, granularity);
      case AdversaryKind::singleStep:
        return std::make_unique<SingleStepAdversary>(
            first_page, last_page, granularity);
    }
    return nullptr;
}

} // namespace mintcb::verify
