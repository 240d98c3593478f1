#include "sim/place.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/deployment.h"
#include "schemes/pdr_scheme.h"
#include "sim/builders.h"
#include "sim/walker.h"

namespace uniloc::sim {
namespace {

Place simple_place() {
  Place p("test", {1.35, 103.68});
  p.add_walkway(make_walkway(
      "w", {0.0, 0.0}, 0.0,
      {{SegmentType::kOffice, 20.0, 90.0, 2.0},
       {SegmentType::kCorridor, 30.0, 0.0, 4.0},
       {SegmentType::kOpenSpace, 50.0, 0.0, 12.0}}));
  return p;
}

TEST(SegmentType, IndoorClassification) {
  EXPECT_TRUE(is_indoor(SegmentType::kOffice));
  EXPECT_TRUE(is_indoor(SegmentType::kCorridor));   // roofed => indoor
  EXPECT_TRUE(is_indoor(SegmentType::kBasement));
  EXPECT_TRUE(is_indoor(SegmentType::kCarPark));
  EXPECT_TRUE(is_indoor(SegmentType::kMallAisle));
  EXPECT_FALSE(is_indoor(SegmentType::kOpenSpace));
}

TEST(SegmentType, SkyVisibilityOrdering) {
  EXPECT_DOUBLE_EQ(sky_visibility(SegmentType::kOpenSpace), 1.0);
  EXPECT_DOUBLE_EQ(sky_visibility(SegmentType::kBasement), 0.0);
  EXPECT_LT(sky_visibility(SegmentType::kOffice),
            sky_visibility(SegmentType::kCorridor));
}

TEST(SegmentType, Names) {
  EXPECT_STREQ(segment_name(SegmentType::kBasement), "basement");
  EXPECT_STREQ(segment_name(SegmentType::kOpenSpace), "open_space");
}

TEST(Walkway, SegmentAtArclen) {
  const Place p = simple_place();
  const Walkway& w = p.walkways()[0];
  EXPECT_EQ(w.segment_at(5.0).type, SegmentType::kOffice);
  EXPECT_EQ(w.segment_at(25.0).type, SegmentType::kCorridor);
  EXPECT_EQ(w.segment_at(99.0).type, SegmentType::kOpenSpace);
}

TEST(Walkway, SegmentAtClampsToEnds) {
  const Place p = simple_place();
  const Walkway& w = p.walkways()[0];
  EXPECT_EQ(w.segment_at(-1.0).type, SegmentType::kOffice);
  EXPECT_EQ(w.segment_at(1e9).type, SegmentType::kOpenSpace);
}

TEST(Walkway, LengthWhere) {
  const Place p = simple_place();
  const Walkway& w = p.walkways()[0];
  EXPECT_DOUBLE_EQ(w.length_where(is_indoor), 50.0);
  EXPECT_DOUBLE_EQ(w.line.length(), 100.0);
}

TEST(Walkway, TurnLandmarksAtSharpCorners) {
  const Place p = simple_place();
  const std::vector<Landmark> turns = p.walkways()[0].turn_landmarks();
  ASSERT_EQ(turns.size(), 1u);  // single 90-degree corner at 20 m
  EXPECT_NEAR(turns[0].pos.x, 20.0, 1e-9);
}

TEST(Place, AddTurnLandmarksSkipsOutdoor) {
  Place p("t", {1.35, 103.68});
  p.add_walkway(make_walkway("w", {0.0, 0.0}, 0.0,
                             {{SegmentType::kOpenSpace, 30.0, 90.0},
                              {SegmentType::kOpenSpace, 30.0, 0.0}}));
  p.add_turn_landmarks();
  EXPECT_TRUE(p.landmarks().empty());  // outdoor turns are not landmarks
}

TEST(Place, EnvironmentAtResolvesSegment) {
  const Place p = simple_place();
  const LocalEnvironment env = p.environment_at({10.0, 0.5});
  EXPECT_EQ(env.type, SegmentType::kOffice);
  EXPECT_TRUE(env.indoor);
  EXPECT_DOUBLE_EQ(env.corridor_width_m, 2.0);
  EXPECT_NEAR(env.distance_to_walkway, 0.5, 1e-9);
}

TEST(Place, EnvironmentFarFromWalkwaysIsOutdoor) {
  const Place p = simple_place();
  const LocalEnvironment env = p.environment_at({500.0, 500.0});
  EXPECT_EQ(env.type, SegmentType::kOpenSpace);
  EXPECT_FALSE(env.indoor);
}

TEST(Place, LandmarksNear) {
  Place p = simple_place();
  p.add_landmark({{10.0, 0.0}, LandmarkKind::kDoor, 2.0});
  p.add_landmark({{90.0, 0.0}, LandmarkKind::kDoor, 2.0});
  EXPECT_EQ(p.landmarks_near({11.0, 0.0}, 3.0).size(), 1u);
  EXPECT_EQ(p.landmarks_near({50.0, 50.0}, 3.0).size(), 0u);
}

TEST(Place, BoundsInflated) {
  const Place p = simple_place();
  const geo::BBox b = p.bounds();
  EXPECT_TRUE(b.contains({0.0, 0.0}));
  EXPECT_TRUE(b.contains({20.0, 80.0}));
}

TEST(Place, RejectsDegenerateWalkway) {
  Place p("t", {1.35, 103.68});
  Walkway w;
  w.name = "point";
  w.line = geo::Polyline({{0.0, 0.0}});
  EXPECT_THROW(p.add_walkway(std::move(w)), std::invalid_argument);
}

TEST(Place, DefaultSegmentCoversWholeLine) {
  Place p("t", {1.35, 103.68});
  Walkway w;
  w.name = "bare";
  w.line = geo::Polyline({{0.0, 0.0}, {10.0, 0.0}});
  const std::size_t i = p.add_walkway(std::move(w));
  const Walkway& added = p.walkways()[i];
  ASSERT_EQ(added.segments.size(), 1u);
  EXPECT_DOUBLE_EQ(added.segments[0].end_arclen, 10.0);
}

TEST(MakeWalkway, MergesSameTypeSameWidthLegs) {
  const Walkway w = make_walkway(
      "m", {0.0, 0.0}, 0.0,
      {{SegmentType::kOffice, 10.0, 0.0}, {SegmentType::kOffice, 10.0, 0.0}});
  EXPECT_EQ(w.segments.size(), 1u);
  EXPECT_DOUBLE_EQ(w.segments[0].end_arclen, 20.0);
}

TEST(MakeWalkway, KeepsDistinctWidths) {
  const Walkway w = make_walkway(
      "m", {0.0, 0.0}, 0.0,
      {{SegmentType::kOffice, 10.0, 0.0, 2.0},
       {SegmentType::kOffice, 10.0, 0.0, 4.0}});
  EXPECT_EQ(w.segments.size(), 2u);
}

TEST(MakeWalkway, TurnChangesDirection) {
  const Walkway w = make_walkway(
      "m", {0.0, 0.0}, 0.0,
      {{SegmentType::kOffice, 10.0, 90.0}, {SegmentType::kOffice, 10.0, 0.0}});
  const geo::Vec2 end = w.line.points().back();
  EXPECT_NEAR(end.x, 10.0, 1e-9);
  EXPECT_NEAR(end.y, 10.0, 1e-9);
}

// --------------------------------------------- indexed environment lookup
//
// The PDR/fusion map constraint reads the environment through the
// precomputed candidate index (Place::EnvView) and skips cells the index
// certifies corridor-safe. Both are claimed exact: the view's answer is
// environment_at's bit for bit, and a safe point is one where the
// constraint's `beyond` term is exactly 0. The full-scan environment_at
// is the oracle.

/// Tracks the first failing point so a broken index reports one line,
/// not millions.
struct EnvCheck {
  std::size_t points{0};
  std::size_t safe{0};
  std::size_t failures{0};
  std::string first;

  void check(const Place& place, const Place::EnvView& view, geo::Vec2 p) {
    ++points;
    const LocalEnvironment want = place.environment_at(p);
    const LocalEnvironment got = view.environment(p);
    const bool same = want.type == got.type &&
                      want.corridor_width_m == got.corridor_width_m &&
                      want.indoor == got.indoor &&
                      want.sky_visibility == got.sky_visibility &&
                      want.walkway == got.walkway &&
                      want.arclen == got.arclen &&
                      want.distance_to_walkway == got.distance_to_walkway;
    bool ok = same;
    if (view.corridor_safe(p)) {
      ++safe;
      ok = ok &&
           want.distance_to_walkway - want.corridor_width_m / 2.0 <= 0.0;
    }
    if (!ok && failures++ == 0) {
      first = "(" + std::to_string(p.x) + ", " + std::to_string(p.y) + ")" +
              (same ? " corridor_safe but outside the corridor"
                    : " environment differs");
    }
  }
};

void check_venue(const std::string& label, Place venue) {
  const core::Deployment d = core::make_deployment(std::move(venue));
  const Place& place = *d.place;
  const Place::EnvView view = place.env_view();
  EnvCheck c;

  // Every point of a 0.25 m grid over the venue bounds.
  const geo::BBox box = place.bounds();
  for (double y = box.min.y; y <= box.max.y; y += 0.25) {
    for (double x = box.min.x; x <= box.max.x; x += 0.25) {
      c.check(place, view, {x, y});
    }
  }
  const std::size_t grid_safe = c.safe;

  // Every particle position of one PDR walk: the points the map
  // constraint actually queries, off any grid.
  schemes::PdrScheme pdr(&place, schemes::PdrOptions{});
  Walker walker(&place, d.radio.get(), 0, WalkConfig{});
  pdr.reset({walker.start_position(), walker.start_heading()});
  while (!walker.done()) {
    const schemes::SchemeOutput out = pdr.update(walker.step(false));
    for (const schemes::WeightedPoint& wp : out.posterior.support) {
      c.check(place, view, wp.pos);
    }
  }

  EXPECT_EQ(c.failures, 0u) << label << ": " << c.failures << " of "
                            << c.points << " points fail, first " << c.first;
  EXPECT_GT(grid_safe, 0u) << label << ": no grid point certified safe";
  EXPECT_GT(c.safe, grid_safe) << label << ": no particle certified safe";
}

TEST(PlaceEnvView, MatchesFullScanOnCampusAndOffice) {
  check_venue("campus", campus(42));
  check_venue("office", office_place(42));
}

TEST(PlaceEnvView, MatchesFullScanOnRandomVenues) {
  for (int i = 0; i < 4; ++i) {
    RandomPlaceSpec spec;
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    spec.walkways = 2 + i;
    spec.venue_mix = i;
    check_venue("random " + std::to_string(i), random_place(spec));
  }
}

}  // namespace
}  // namespace uniloc::sim
