// Fault-plan parsing and normalization: the colon-packed spec parsers, the
// fault-file text format, schedule validation/merging, and the outage
// calendar's half-open interval semantics.
#include "fault/fault_schedule.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "fault/dns_outage.h"

namespace adattl::fault {
namespace {

TEST(FaultSpecParsers, CrashSpec) {
  const CrashWindow w = FaultSchedule::parse_crash("900:600:2");
  EXPECT_DOUBLE_EQ(w.start_sec, 900.0);
  EXPECT_DOUBLE_EQ(w.duration_sec, 600.0);
  EXPECT_EQ(w.server, 2);
  EXPECT_THROW(FaultSchedule::parse_crash("900:600"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse_crash("900:600:2:1"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse_crash("abc:600:2"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse_crash(""), std::invalid_argument);
}

TEST(FaultSpecParsers, DegradeSpec) {
  const DegradeWindow w = FaultSchedule::parse_degrade("1200:900:1:0.5");
  EXPECT_DOUBLE_EQ(w.start_sec, 1200.0);
  EXPECT_DOUBLE_EQ(w.duration_sec, 900.0);
  EXPECT_EQ(w.server, 1);
  EXPECT_DOUBLE_EQ(w.factor, 0.5);
  EXPECT_THROW(FaultSchedule::parse_degrade("1200:900:1"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse_degrade("1200:900:1:x"), std::invalid_argument);
}

TEST(FaultSpecParsers, PauseAndDnsOutageSpecs) {
  const PauseWindow p = FaultSchedule::parse_pause("600:300:0");
  EXPECT_DOUBLE_EQ(p.start_sec, 600.0);
  EXPECT_EQ(p.server, 0);
  const DnsOutageWindow o = FaultSchedule::parse_dns_outage("1000:120");
  EXPECT_DOUBLE_EQ(o.start_sec, 1000.0);
  EXPECT_DOUBLE_EQ(o.duration_sec, 120.0);
  EXPECT_THROW(FaultSchedule::parse_dns_outage("1000"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse_dns_outage("1000:120:5"), std::invalid_argument);
}

TEST(FaultSpecParsers, ScaleAndResizeSpecs) {
  const ScaleEvent up = FaultSchedule::parse_scale("500:2", true);
  EXPECT_DOUBLE_EQ(up.start_sec, 500.0);
  EXPECT_EQ(up.server, 2);
  EXPECT_TRUE(up.up);
  const ScaleEvent down = FaultSchedule::parse_scale("700:3", false);
  EXPECT_EQ(down.server, 3);
  EXPECT_FALSE(down.up);
  EXPECT_THROW(FaultSchedule::parse_scale("500", true), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse_scale("500:2:1", true), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse_scale("x:2", true), std::invalid_argument);

  const ResizeEvent r = FaultSchedule::parse_resize("800:1:1.5");
  EXPECT_DOUBLE_EQ(r.start_sec, 800.0);
  EXPECT_EQ(r.server, 1);
  EXPECT_DOUBLE_EQ(r.factor, 1.5);
  EXPECT_THROW(FaultSchedule::parse_resize("800:1"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse_resize("800:1:1.5:2"), std::invalid_argument);
}

TEST(FaultText, ParsesElasticDirectives) {
  const FaultSchedule s = parse_fault_text(
      "scale-down = 700:3\n"
      "scale-up   = 900:3\n"
      "resize     = 800:1:0.5\n");
  ASSERT_EQ(s.scale_events.size(), 2u);
  EXPECT_FALSE(s.scale_events[0].up);
  EXPECT_TRUE(s.scale_events[1].up);
  ASSERT_EQ(s.resizes.size(), 1u);
  EXPECT_DOUBLE_EQ(s.resizes[0].factor, 0.5);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(s.empty());
}

TEST(FaultSchedule, ValidatesElasticEvents) {
  FaultSchedule scale;
  scale.scale_events.push_back({500.0, 2, false});
  EXPECT_NO_THROW(scale.validate(7));
  EXPECT_THROW(scale.validate(2), std::invalid_argument);  // server out of range

  FaultSchedule past;
  past.scale_events.push_back({-1.0, 0, true});
  EXPECT_THROW(past.validate(7), std::invalid_argument);

  FaultSchedule bad_resize;
  bad_resize.resizes.push_back({10.0, 0, 0.0});
  EXPECT_THROW(bad_resize.validate(7), std::invalid_argument);

  FaultSchedule merged = parse_fault_text("scale-down = 1:0\n");
  merged.merge(parse_fault_text("resize = 2:1:2.0\nscale-up = 3:0\n"));
  EXPECT_EQ(merged.scale_events.size(), 2u);
  EXPECT_EQ(merged.resizes.size(), 1u);
}

TEST(FaultText, ParsesDirectivesCommentsAndBlanks) {
  const FaultSchedule s = parse_fault_text(
      "# chaos plan\n"
      "\n"
      "crash      = 900:600:2\n"
      "degrade    = 1200:900:1:0.5\n"
      "pause      = 600:300:0   # trailing comment\n"
      "dns-outage = 1000:120\n");
  ASSERT_EQ(s.crashes.size(), 1u);
  ASSERT_EQ(s.degradations.size(), 1u);
  ASSERT_EQ(s.pauses.size(), 1u);
  ASSERT_EQ(s.dns_outages.size(), 1u);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.crashes[0].server, 2);
  EXPECT_DOUBLE_EQ(s.degradations[0].factor, 0.5);
}

TEST(FaultText, UnknownKeyNamesTheLine) {
  try {
    parse_fault_text("crash = 1:1:0\nbogus = 3\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(FaultText, EmptyTextYieldsEmptySchedule) {
  EXPECT_TRUE(parse_fault_text("").empty());
  EXPECT_TRUE(parse_fault_text("# only comments\n\n").empty());
}

TEST(FaultFile, MissingFileThrows) {
  EXPECT_THROW(load_fault_file("/nonexistent/chaos.faults"), std::runtime_error);
}

TEST(FaultSchedule, ValidateChecksEveryWindow) {
  FaultSchedule s;
  s.crashes.push_back({100.0, 60.0, 2});
  EXPECT_NO_THROW(s.validate(7));
  EXPECT_THROW(s.validate(2), std::invalid_argument);  // server out of range

  FaultSchedule neg;
  neg.pauses.push_back({-1.0, 10.0, 0});
  EXPECT_THROW(neg.validate(7), std::invalid_argument);

  FaultSchedule zero_dur;
  zero_dur.dns_outages.push_back({10.0, 0.0});
  EXPECT_THROW(zero_dur.validate(7), std::invalid_argument);

  FaultSchedule bad_factor;
  bad_factor.degradations.push_back({10.0, 5.0, 0, 0.0});
  EXPECT_THROW(bad_factor.validate(7), std::invalid_argument);
}

TEST(FaultSchedule, ValidateRejectsNaNTimesAndNonFiniteFactors) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejects = [](const FaultSchedule& s, const std::string& field) {
    try {
      s.validate(7);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
      return;
    }
    ADD_FAILURE() << "validate accepted a schedule with a bad " << field;
  };

  // What --crash=nan:50:1, --pause=100:nan:1, --dns-outage=nan:10,
  // --degrade=100:50:1:nan and :inf, --resize=100:1:nan and
  // --scale-down=nan:1 parse to.
  FaultSchedule crash;
  crash.crashes.push_back(FaultSchedule::parse_crash("nan:50:1"));
  rejects(crash, "crash: start");
  FaultSchedule pause;
  pause.pauses.push_back(FaultSchedule::parse_pause("100:nan:1"));
  rejects(pause, "pause: duration");
  FaultSchedule outage;
  outage.dns_outages.push_back(FaultSchedule::parse_dns_outage("nan:10"));
  rejects(outage, "dns-outage: start");
  for (const char* factor : {"nan", "inf", "-inf"}) {
    FaultSchedule degrade;
    degrade.degradations.push_back(
        FaultSchedule::parse_degrade(std::string("100:50:1:") + factor));
    rejects(degrade, "degrade: capacity factor");
    FaultSchedule resize;
    resize.resizes.push_back(FaultSchedule::parse_resize(std::string("100:1:") + factor));
    rejects(resize, "resize: factor");
  }
  FaultSchedule scale;
  scale.scale_events.push_back(FaultSchedule::parse_scale("nan:1", false));
  rejects(scale, "scale-down: start");
  FaultSchedule resize_start;
  resize_start.resizes.push_back({nan, 1, 0.5});
  rejects(resize_start, "resize: start");
  FaultSchedule degrade_window;
  degrade_window.degradations.push_back({100.0, nan, 1, 0.5});
  rejects(degrade_window, "degrade: duration");

  // An infinite duration is a crash that never recovers, and an infinite
  // start a window that never opens: both stay legal.
  FaultSchedule permanent;
  permanent.crashes.push_back(FaultSchedule::parse_crash("100:inf:1"));
  permanent.pauses.push_back({inf, 10.0, 0});
  EXPECT_NO_THROW(permanent.validate(7));
}

TEST(FaultSchedule, MergeAppendsAllWindowKinds) {
  FaultSchedule a = parse_fault_text("crash = 1:1:0\n");
  const FaultSchedule b = parse_fault_text("crash = 2:1:1\ndns-outage = 5:5\n");
  a.merge(b);
  EXPECT_EQ(a.crashes.size(), 2u);
  EXPECT_EQ(a.dns_outages.size(), 1u);
  EXPECT_EQ(a.size(), 3u);
}

TEST(FaultSchedule, ApplyDirectiveRejectsNonFaultKeys) {
  FaultSchedule s;
  EXPECT_TRUE(s.apply_directive("crash", "1:1:0"));
  EXPECT_FALSE(s.apply_directive("policy", "RR"));
  EXPECT_THROW(s.apply_directive("crash", "1:1"), std::invalid_argument);
}

TEST(DnsOutageCalendarTest, HalfOpenBoundaries) {
  const DnsOutageCalendar cal({{100.0, 50.0}});
  EXPECT_FALSE(cal.unreachable(99.999));
  EXPECT_TRUE(cal.unreachable(100.0));  // closed at the start
  EXPECT_TRUE(cal.unreachable(149.999));
  EXPECT_FALSE(cal.unreachable(150.0));  // open at recovery: reachable again
}

TEST(DnsOutageCalendarTest, NormalizesOverlapAndOrder) {
  // Declared out of order with an overlap and an adjacency: normalized to
  // two disjoint windows [50, 180) and [300, 360).
  const DnsOutageCalendar cal({{120.0, 60.0}, {50.0, 70.0}, {300.0, 60.0}});
  ASSERT_EQ(cal.windows().size(), 2u);
  EXPECT_DOUBLE_EQ(cal.windows()[0].start_sec, 50.0);
  EXPECT_DOUBLE_EQ(cal.windows()[0].duration_sec, 130.0);
  EXPECT_DOUBLE_EQ(cal.windows()[1].start_sec, 300.0);
  EXPECT_TRUE(cal.unreachable(119.0));  // inside the merged gap
  EXPECT_FALSE(cal.unreachable(200.0));
  EXPECT_DOUBLE_EQ(cal.outage_seconds(1000.0), 190.0);
}

TEST(DnsOutageCalendarTest, OutageSecondsClippedToHorizon) {
  const DnsOutageCalendar cal({{100.0, 100.0}});
  EXPECT_DOUBLE_EQ(cal.outage_seconds(150.0), 50.0);
  EXPECT_DOUBLE_EQ(cal.outage_seconds(50.0), 0.0);
  EXPECT_DOUBLE_EQ(cal.outage_seconds(1000.0), 100.0);
}

TEST(DnsOutageCalendarTest, EmptyCalendarAlwaysReachable) {
  const DnsOutageCalendar cal;
  EXPECT_TRUE(cal.empty());
  EXPECT_FALSE(cal.unreachable(0.0));
  EXPECT_DOUBLE_EQ(cal.outage_seconds(1e6), 0.0);
}

}  // namespace
}  // namespace adattl::fault
